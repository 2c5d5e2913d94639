package obs

import (
	"strings"
	"testing"
)

func TestCheckExposition(t *testing.T) {
	const hist = "# HELP h_seconds H.\n# TYPE h_seconds histogram\n"
	ok := []string{
		"",
		"# HELP c_total C.\n# TYPE c_total counter\nc_total 3\n",
		"# HELP c_total C.\n# TYPE c_total counter\n", // a labelled family with no series yet
		`# HELP c_total C.` + "\n# TYPE c_total counter\n" + `c_total{a="x\"y\\z\n",b=""} 1` + "\n",
		hist + `h_seconds_bucket{m="a",le="1"} 1` + "\n" + `h_seconds_bucket{m="a",le="+Inf"} 2` + "\n" +
			`h_seconds_sum{m="a"} 7.5` + "\n" + `h_seconds_count{m="a"} 2` + "\n",
	}
	for _, text := range ok {
		if err := CheckExposition(text); err != nil {
			t.Errorf("CheckExposition(%q) = %v, want nil", text, err)
		}
	}
	bad := map[string]string{
		"sample before HELP":       "c_total 1\n",
		"HELP without TYPE":        "# HELP c_total C.\nc_total 1\n",
		"TYPE names other family":  "# HELP c_total C.\n# TYPE d_total counter\n",
		"sample of another family": "# HELP c_total C.\n# TYPE c_total counter\nd_total 1\n",
		"suffix on a counter":      "# HELP c C.\n# TYPE c counter\nc_count 1\n",
		"tab escape":               "# HELP c C.\n# TYPE c counter\n" + `c{a="x\ty"} 1` + "\n",
		"hex escape":               "# HELP c C.\n# TYPE c counter\n" + `c{a="\x01"} 1` + "\n",
		"fmt error verb":           "# HELP c C.\n# TYPE c counter\n" + `c{a="b"%!(EXTRA string=x)} 1` + "\n",
		"unterminated value":       "# HELP c C.\n# TYPE c counter\n" + `c{a="b} 1` + "\n",
		"no value":                 "# HELP c C.\n# TYPE c counter\nc\n",
		"falling buckets": hist + `h_seconds_bucket{le="1"} 2` + "\n" + `h_seconds_bucket{le="+Inf"} 1` + "\n" +
			"h_seconds_sum 1\nh_seconds_count 1\n",
		"count differs from +Inf": hist + `h_seconds_bucket{le="+Inf"} 2` + "\nh_seconds_sum 1\nh_seconds_count 3\n",
		"bucket without le":       hist + `h_seconds_bucket{m="a"} 2` + "\n",
	}
	for name, text := range bad {
		if err := CheckExposition(text); err == nil {
			t.Errorf("%s: CheckExposition accepted %q", name, strings.TrimSpace(text))
		}
	}
}
