package causal

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// FormatRecord renders one record as a single human-readable line:
//
//	15:04:05 [0123456789abcdef] soa/soa.admit reject srv3/vm policy=greedy inputs{watts=812 budget=800} detail
//
// It is the shared rendering of socctl explain and ad-hoc log dumps, so a
// chain reads the same everywhere.
func FormatRecord(r *Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s] %s/%s",
		r.Time.UTC().Format(time.TimeOnly), r.Span, r.Component, r.Site)
	if r.Verdict != "" {
		fmt.Fprintf(&b, " %s", r.Verdict)
	}
	if r.Subject != "" {
		fmt.Fprintf(&b, " %s", r.Subject)
	}
	if r.Policy != "" {
		fmt.Fprintf(&b, " policy=%s", r.Policy)
	}
	if len(r.Inputs) > 0 {
		b.WriteString(" inputs{")
		for i, in := range r.Inputs {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s=%g", in.Name, in.Value)
		}
		b.WriteByte('}')
	}
	if len(r.Links) > 0 {
		b.WriteString(" links[")
		for i, l := range r.Links {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(l.String())
		}
		b.WriteByte(']')
	}
	if r.Detail != "" {
		fmt.Fprintf(&b, " %s", r.Detail)
	}
	return b.String()
}

// WriteChain renders a root-first causal chain, each consequence indented
// one step deeper than its cause.
func WriteChain(w io.Writer, chain []Record) error {
	for i := range chain {
		if _, err := fmt.Fprintf(w, "%s%s\n", strings.Repeat("  ", i), FormatRecord(&chain[i])); err != nil {
			return err
		}
	}
	return nil
}
