// Package staccatolint assembles the repo's analyzer suite — the four
// checks that machine-enforce the coding invariants the Staccato
// correctness story rests on:
//
//	mapiter      bit-deterministic probabilities: no order-dependent
//	             map iteration in pkg/query, pkg/index, pkg/fst,
//	             internal/core
//	floateq      no exact ==/!= on floats outside internal/core's
//	             epsilon helpers
//	ctxflow      context deadlines thread end-to-end; no fresh
//	             Background()/TODO() roots inside pkg/
//	lockio       diskstore reads bytes under its locks and decodes
//	             outside them; no avoidable I/O in critical sections
//
// cmd/staccatovet runs the suite; each analyzer honors
// //lint:allow <name> <reason> with a mandatory reason.
package staccatolint

import (
	"github.com/paper-repo/staccato-go/internal/analysis"
	"github.com/paper-repo/staccato-go/internal/analysis/ctxflow"
	"github.com/paper-repo/staccato-go/internal/analysis/floateq"
	"github.com/paper-repo/staccato-go/internal/analysis/lockio"
	"github.com/paper-repo/staccato-go/internal/analysis/mapiter"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer,
		floateq.Analyzer,
		lockio.Analyzer,
		mapiter.Analyzer,
	}
}
