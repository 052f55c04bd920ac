package main

import (
	"strings"
	"testing"
	"time"
)

// TestStatusLineCountsExecutions: the summary says how many of the
// configurations' compilations were executed.
func TestStatusLineCountsExecutions(t *testing.T) {
	got := statusLine(10, 10, 0, []string{"0 sanitize"}, 41, 70, 2*time.Second)
	for _, want := range []string{"10/10 seeds", "0 divergences (0 sanitize)", "executed 41 of 70", "5.0 seeds/sec"} {
		if !strings.Contains(got, want) {
			t.Errorf("status %q lacks %q", got, want)
		}
	}
}
