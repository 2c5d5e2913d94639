package obs

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// sampleLine matches one sample: a metric name, an optional label set whose
// values use only the \\, \" and \n escapes, and a value.
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)` +
	`(\{[a-zA-Z_]\w*="(?:[^"\\]|\\[\\"n])*"(?:,[a-zA-Z_]\w*="(?:[^"\\]|\\[\\"n])*")*\})? (\S+)$`)

// CheckExposition reports the first place text breaks the Prometheus text
// format as the Registry writes it: a sample outside its family's HELP and
// TYPE lines, a malformed label set or escape, histogram buckets that are
// not cumulative or whose le="+Inf" bucket differs from _count, or a fmt
// error verb ("%!"). Tests run every exposition golden through it.
func CheckExposition(text string) error {
	if i := strings.Index(text, "%!"); i >= 0 {
		return fmt.Errorf("fmt error verb at byte %d", i)
	}
	var help, family, typ string
	var bucket, inf float64 // the series' last bucket and its +Inf bucket
	for n, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		m := sampleLine.FindStringSubmatch(line)
		var v float64
		err := fmt.Errorf("malformed sample")
		if m != nil {
			v, err = strconv.ParseFloat(m[3], 64)
		}
		suffix, inFamily := "", false
		if m != nil && family != "" {
			suffix, inFamily = strings.CutPrefix(m[1], family)
			inFamily = inFamily && (suffix == "" || typ == "histogram" && (suffix == "_bucket" || suffix == "_sum" || suffix == "_count"))
		}
		switch {
		case help != "" && (len(f) != 4 || f[1] != "TYPE" || f[2] != help):
			err = fmt.Errorf("HELP %s is not followed by its TYPE line", help)
		case line == "":
			continue
		case strings.HasPrefix(line, "# HELP "):
			help = f[2]
			continue
		case strings.HasPrefix(line, "# TYPE "):
			if help == "" {
				return fmt.Errorf("line %d %q: TYPE without its HELP line", n+1, line)
			}
			family, typ, help = f[2], f[3], ""
			continue
		case err != nil:
		case !inFamily:
			err = fmt.Errorf("sample outside family %q", family)
		case suffix == "_bucket" && (!strings.Contains(m[2], `le="`) || v < bucket):
			err = fmt.Errorf("bucket without le, or below the previous bucket")
		case suffix == "_bucket":
			if bucket = v; strings.HasSuffix(m[2], `le="+Inf"}`) {
				inf = v
			}
			continue
		case suffix == "_count" && v != inf:
			err = fmt.Errorf("_count differs from the +Inf bucket")
		default:
			if suffix == "_count" {
				bucket, inf = 0, 0
			}
			continue
		}
		return fmt.Errorf("line %d %q: %v", n+1, line, err)
	}
	return nil
}
