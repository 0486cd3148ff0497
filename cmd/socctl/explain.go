package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"smartoclock/internal/causal"
	"smartoclock/internal/telemetry"
)

// exitNotFound is explain's exit code for a span the log or the server's
// provenance window does not hold.
const exitNotFound = exitRejected

// runExplain is the explain command: "why did the control plane do that".
// Given a span ID it prints the decision record, its causal ancestry root
// first (the workload-interface request, the budget broadcast, the
// admission verdict...) and its direct consequences. With -recent N it
// lists the N newest provenance records instead: the discovery path when
// no span is at hand yet. It reads a provenance log written offline
// (socsim -prov-out) with -log, and otherwise the unauthenticated /explain
// endpoint on the /api/v1 listener at base.
//
// Exit codes: 1 usage error (including a malformed span), 2 span not
// found, 3 read or transport failure.
func runExplain(args []string, base string, timeout time.Duration, asJSON bool) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	span := fs.String("span", "", "span ID (16-digit hex) to explain")
	logPath := fs.String("log", "", "read this provenance log (JSON Lines, from socsim -prov-out) instead of querying the server")
	recent := fs.Int("recent", 0, "instead of explaining a span, list the N newest provenance records")
	_ = fs.Parse(args)
	target := *span
	if target == "" && fs.NArg() == 1 {
		target = fs.Arg(0)
	}
	if fs.NArg() > 1 || (*recent > 0) == (target != "") {
		usage(fs, "explain needs a span ID or -recent N")
	}

	query, res := "span="+url.QueryEscape(target), any(new(telemetry.Explanation))
	if *recent > 0 {
		query, res = "recent="+strconv.Itoa(*recent), new(telemetry.RecentRecords)
	}
	var code int
	var err error
	if *logPath != "" {
		res, code, err = explainOffline(*logPath, target, *recent)
	} else {
		code, err = explainLive(base, query, timeout, res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "socctl: %v\n", err)
		os.Exit(code)
	}
	if asJSON {
		printJSON(res)
		return
	}
	switch res := res.(type) {
	case *telemetry.Explanation:
		render(os.Stdout, res)
	case *telemetry.RecentRecords:
		for i := range res.Records {
			fmt.Println(causal.FormatRecord(&res.Records[i]))
		}
		fmt.Fprintf(os.Stderr, "socctl: %d of %d held records (%d ever recorded)\n",
			len(res.Records), res.Held, res.Total)
	}
}

// explainOffline answers from the provenance log at path in the shapes
// the live /explain endpoint returns: the *telemetry.Explanation of span,
// or with recent > 0 the *telemetry.RecentRecords holding the newest
// recent records. On failure it returns the exit code with the error.
func explainOffline(path, span string, recent int) (any, int, error) {
	var id causal.SpanID
	if recent <= 0 {
		var err error
		if id, err = causal.ParseSpan(span); err != nil {
			return nil, exitUsage, err
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, exitFailure, err
	}
	defer f.Close()
	log, err := causal.ReadLog(f)
	if err != nil {
		return nil, exitFailure, fmt.Errorf("%s: %w", path, err)
	}
	if recent > 0 {
		recs := log.Records
		if len(recs) > recent {
			recs = recs[len(recs)-recent:]
		}
		return &telemetry.RecentRecords{Records: recs, Held: log.Len(), Total: log.Len()}, exitOK, nil
	}
	rec := log.Find(id)
	if rec == nil {
		return nil, exitNotFound, fmt.Errorf("span %s not in %s (%d records)", id, path, log.Len())
	}
	chain := log.Chain(id)
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return &telemetry.Explanation{
		Span:     id.String(),
		Record:   *rec,
		Chain:    chain,
		Children: log.Children(id),
		Held:     log.Len(),
		Total:    log.Len(),
	}, exitOK, nil
}

// explainLive decodes the server's /explain?query response into out. On
// failure it returns the exit code with the error: the server answers 400
// to a malformed span or count and 404 to a span outside its window.
func explainLive(base, query string, timeout time.Duration, out any) (int, error) {
	hc := &http.Client{Timeout: timeout}
	resp, err := hc.Get(base + "/explain?" + query)
	if err != nil {
		return exitFailure, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return exitFailure, err
	}
	msg := strings.TrimSpace(string(body))
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusBadRequest:
		return exitUsage, errors.New(msg)
	case http.StatusNotFound:
		return exitNotFound, errors.New(msg)
	default:
		return exitFailure, fmt.Errorf("%s: %s", resp.Status, msg)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return exitFailure, fmt.Errorf("bad /explain response: %w", err)
	}
	return exitOK, nil
}

// render prints an explanation for a human: the decision, its causal chain
// root first, its consequences, and a note when the provenance window no
// longer holds every record, so an ancestor missing from the chain may
// have aged out.
func render(w io.Writer, ex *telemetry.Explanation) {
	fmt.Fprintf(w, "span %s: %s/%s %s\n\n", ex.Span, ex.Record.Component, ex.Record.Site, ex.Record.Verdict)
	fmt.Fprintf(w, "causal chain (root first):\n")
	_ = causal.WriteChain(w, ex.Chain)
	if len(ex.Children) > 0 {
		fmt.Fprintf(w, "\nconsequences:\n")
		for i := range ex.Children {
			fmt.Fprintf(w, "  %s\n", causal.FormatRecord(&ex.Children[i]))
		}
	}
	if ex.Held != ex.Total {
		fmt.Fprintf(w, "\n(window holds %d of %d records; older ancestors may have aged out)\n", ex.Held, ex.Total)
	}
}
