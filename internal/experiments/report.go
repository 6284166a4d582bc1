package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"
)

// Report runs every registered experiment under the profile and writes a
// consolidated Markdown report: one section per experiment with its title,
// description, quantitative notes, and table rows where applicable. It is
// the automated skeleton of EXPERIMENTS.md.
//
// now is injected so tests can pin the timestamp; pass time.Now().
func Report(w io.Writer, p Profile, now time.Time) error {
	return ReportCtx(context.Background(), w, p, now)
}

// ReportCtx is Report under a cancellation context: the run stops at the
// first experiment that observes cancellation and returns its error.
func ReportCtx(ctx context.Context, w io.Writer, p Profile, now time.Time) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := p.Validate(); err != nil {
		return err
	}
	var results []*Result
	for _, id := range IDs() {
		res, err := RunCtx(ctx, id, p)
		if err != nil {
			return fmt.Errorf("experiments: report: %s: %w", id, err)
		}
		results = append(results, res)
	}
	RenderReport(w, p, results, now)
	return nil
}

// RenderReport writes the report of results already run under p, one
// section per result in the order given; Report is RenderReport over a run
// of every registered experiment in paper order.
func RenderReport(w io.Writer, p Profile, results []*Result, now time.Time) {
	fmt.Fprintf(w, "# mtreescale experiment report\n\n")
	fmt.Fprintf(w, "Profile: **%s** (scale %.2g, %d×%d sampling, seed %d). Generated %s.\n\n",
		p.Name, p.Scale, p.NSource, p.NRcvr, p.Seed, now.Format("2006-01-02 15:04 MST"))
	for _, res := range results {
		fmt.Fprintf(w, "## %s — %s\n\n", res.ID, res.Title)
		if r, err := Lookup(res.ID); err == nil && r.Description != "" {
			fmt.Fprintf(w, "%s\n\n", r.Description)
		}
		if len(res.Rows) > 0 {
			fmt.Fprintf(w, "| %s |\n", strings.Join(res.Header, " | "))
			fmt.Fprintf(w, "|%s\n", strings.Repeat("---|", len(res.Header)))
			for _, row := range res.Rows {
				fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
			}
			fmt.Fprintln(w)
		}
		if res.Figure != nil {
			fmt.Fprintf(w, "Series: ")
			for i, s := range res.Figure.Series {
				if i > 0 {
					fmt.Fprint(w, ", ")
				}
				fmt.Fprintf(w, "%s (%d pts)", s.Name, s.Len())
			}
			fmt.Fprintln(w)
			fmt.Fprintln(w)
		}
		for _, n := range res.Notes {
			fmt.Fprintf(w, "- %s\n", n)
		}
		fmt.Fprintln(w)
	}
}
