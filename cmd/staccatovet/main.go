// Command staccatovet runs the staccatolint analyzer suite — the
// repo's machine-enforced correctness invariants — over the module's
// packages. It exits nonzero when any finding survives //lint:allow
// filtering.
//
// Usage:
//
//	go run ./cmd/staccatovet ./...          # the root module
//	go run ./cmd/staccatovet ./pkg/query    # one package
//	go run ./cmd/staccatovet -list          # describe the analyzers
//	go -C bench run github.com/paper-repo/staccato-go/cmd/staccatovet ./...
//	                                        # the nested bench module
//
// scripts/lint.sh (what CI runs) runs both module forms. The suite is
// intentionally self-hosted (see internal/analysis): it depends only on
// the standard library and the go command, so it runs anywhere the repo
// builds — no vettool protocol, no external checker binaries.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/paper-repo/staccato-go/internal/analysis/driver"
)

func main() {
	list := flag.Bool("list", false, "list the suite's analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: staccatovet [-list] [packages]\n\npackages default to ./...; see -list for the checks\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		driver.List(os.Stdout)
		return
	}
	findings, err := driver.Run("", flag.Args(), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "staccatovet:", err)
		os.Exit(2)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "staccatovet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}
