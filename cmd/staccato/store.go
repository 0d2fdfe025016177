package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// openStore opens the database directory dir for the subcommand cmd.
// staccatodb.Open initializes a fresh store on any path, so unless create
// is set — ingest, serve -create — a directory holding no store is
// refused: a typo'd -store must be an error, not an empty corpus plus
// junk files on disk. serve, the one subcommand with a -create flag,
// names it in that error.
func openStore(cmd, dir string, create bool, opts ...staccatodb.Option) (*staccatodb.DB, error) {
	if dir == "" {
		return nil, fmt.Errorf("%s: -store DIR is required", cmd)
	}
	if !create {
		if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); err != nil {
			hint := "run staccato ingest -store first"
			if cmd == "serve" {
				hint += ", or pass -create to initialize an empty database"
			}
			return nil, fmt.Errorf("%s: no store at %s (%w); %s", cmd, dir, err, hint)
		}
	}
	return staccatodb.Open(dir, opts...)
}

// dbOptions maps the -workers, -nosync and -noindex flags, which every
// subcommand that has them shares, to database options.
func dbOptions(workers int, noSync, noIndex bool) []staccatodb.Option {
	var opts []staccatodb.Option
	if workers != 0 {
		opts = append(opts, staccatodb.WithWorkers(workers))
	}
	if noSync {
		opts = append(opts, staccatodb.WithNoSync())
	}
	if noIndex {
		opts = append(opts, staccatodb.WithoutIndex())
	}
	return opts
}
