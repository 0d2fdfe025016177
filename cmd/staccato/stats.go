package main

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// printStatsJSON emits the database's canonical stats shape as one
// machine-readable line. The shape is staccatodb.Stats's JSON encoding
// — the exact object the staccato serve /v1/stats endpoint serves under
// "db" — so scripts can read live doc count and index persistence the
// same way whether they shell out to the CLI or curl the server.
func printStatsJSON(w io.Writer, st staccatodb.Stats) error {
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "stats: %s\n", data)
	return err
}
