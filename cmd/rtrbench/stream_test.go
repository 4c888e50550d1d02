package main

import (
	"strings"
	"testing"
	"time"
)

// TestStreamFlagErrors pins `rtrbench stream`'s flag errors. main prints
// "rtrbench stream: " before each, so the error itself carries no package
// prefix; and every flag is checked before the stream starts, so a bad
// --format on a 5 s stream fails at once.
func TestStreamFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-kernel", "ekfslam", "-period", "0", "-ticks", "5"},
			"Period must be > 0 (got 0s)"},
		{[]string{"-kernel", "ekfslam", "-period", "1ms", "-ticks", "5", "-policy", "nope"},
			`unknown policy "nope" (want skip-next, queue, or anytime-cutoff)`},
		{[]string{"-period", "1ms", "-ticks", "5"},
			"Kernel is required"},
		{[]string{"-kernel", "nope", "-period", "1ms", "-ticks", "5"},
			`unknown kernel "nope"`},
		{[]string{"-kernel", "ekfslam", "-period", "2ms", "-duration", "5s", "-format", "xml"},
			`unknown --format "xml" (want text, json, or csv)`},
	} {
		cmd := "rtrbench stream " + strings.Join(tc.args, " ")
		start := time.Now()
		err := runStream(tc.args)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", cmd, err, tc.want)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: failed after %v, want before the stream starts", cmd, took)
		}
	}
}
