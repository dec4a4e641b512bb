package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promNamespace prefixes every exposed series so loopsum metrics don't
// collide in a shared Prometheus.
const promNamespace = "loopsum_"

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters as <ns><name>_total, gauges plain, and
// histograms as the cumulative _bucket le-series plus _sum and _count. The
// log2 buckets map directly onto exposition buckets with le="2^i" upper
// bounds, so a scrape sees the same resolution QuantileFromBuckets uses.
// Metric names are sanitized (dots and other separators become underscores);
// series are emitted in sorted order so the output is deterministic.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)

	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := promName(k) + "_total"
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[k])
	}

	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := promName(k)
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", n, n, s.Gauges[k])
	}

	names = names[:0]
	for k := range s.Hists {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Hists[k]
		n := promName(k)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", n)
		var cum int64
		for i, c := range h.Buckets {
			cum += c
			// Bucket i holds values < 2^i (bucket 0: values <= 0, for
			// which le="0" is the tight cumulative bound).
			le := "0"
			if i > 0 {
				le = strconv.FormatUint(1<<uint(i), 10)
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"%s\"} %d\n", n, le, cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(bw, "%s_sum %d\n", n, h.Sum)
		fmt.Fprintf(bw, "%s_count %d\n", n, h.Count)
	}

	return bw.Flush()
}

// promName sanitizes a registry metric name into a legal Prometheus metric
// name under the loopsum namespace: [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(promNamespace) + len(name))
	b.WriteString(promNamespace)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// ValidatePrometheus checks text exposition output: every non-comment line
// must be a syntactically valid sample, every sample's metric family must
// have been declared by a preceding # TYPE line, histogram bucket series
// must be cumulative (non-decreasing in le order, ending at +Inf with a
// value equal to _count), and at least one sample must be present. It is
// the scrape-side contract test for WritePrometheus, and what cmd/obsdiff
// -validate-prom and the CI telemetry lane run against a live scrape.
func ValidatePrometheus(data []byte) error {
	types := map[string]string{}
	// histogram family -> bucket tracking
	type histState struct {
		last    float64
		lastCum float64
		lastSet bool
		infSeen bool
		infVal  int64
		count   int64
		hasCnt  bool
	}
	hists := map[string]*histState{}
	samples := 0

	lines := strings.Split(string(data), "\n")
	for ln, line := range lines {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("prom: line %d: unknown type %q", ln+1, fields[3])
				}
				types[fields[2]] = fields[3]
				if fields[3] == "histogram" {
					hists[fields[2]] = &histState{}
				}
			}
			continue
		}
		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return fmt.Errorf("prom: line %d: %w", ln+1, err)
		}
		samples++
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && types[base] == "histogram" {
				family = base
				break
			}
		}
		typ, ok := types[family]
		if !ok {
			return fmt.Errorf("prom: line %d: sample %q has no preceding # TYPE", ln+1, name)
		}
		if typ != "histogram" {
			continue
		}
		hs := hists[family]
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le, ok := labels["le"]
			if !ok {
				return fmt.Errorf("prom: line %d: histogram bucket without le label", ln+1)
			}
			if le == "+Inf" {
				hs.infSeen = true
				hs.infVal = int64(value)
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("prom: line %d: bad le %q: %v", ln+1, le, err)
			}
			if hs.infSeen {
				return fmt.Errorf("prom: line %d: bucket after +Inf in %s", ln+1, family)
			}
			if hs.lastSet && bound <= hs.last {
				return fmt.Errorf("prom: line %d: le bounds not increasing in %s", ln+1, family)
			}
			if hs.lastSet && value < hs.lastCum {
				return fmt.Errorf("prom: line %d: bucket series not cumulative in %s", ln+1, family)
			}
			hs.last, hs.lastSet, hs.lastCum = bound, true, value
		case strings.HasSuffix(name, "_count"):
			hs.count, hs.hasCnt = int64(value), true
		}
	}
	if samples == 0 {
		return fmt.Errorf("prom: no samples")
	}
	for family, hs := range hists {
		if !hs.infSeen {
			return fmt.Errorf("prom: histogram %s missing le=\"+Inf\" bucket", family)
		}
		if hs.hasCnt && hs.infVal != hs.count {
			return fmt.Errorf("prom: histogram %s +Inf bucket %d != count %d", family, hs.infVal, hs.count)
		}
	}
	return nil
}

// parsePromSample splits one exposition sample line into name, labels and
// value. Timestamps (an optional trailing integer) are accepted.
func parsePromSample(line string) (name string, labels map[string]string, value float64, err error) {
	labels = map[string]string{}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			return "", nil, 0, fmt.Errorf("unbalanced braces in %q", line)
		}
		for _, pair := range splitPromLabels(rest[i+1 : j]) {
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("bad label %q", pair)
			}
			val := strings.TrimSpace(pair[eq+1:])
			val = strings.TrimPrefix(val, `"`)
			val = strings.TrimSuffix(val, `"`)
			labels[strings.TrimSpace(pair[:eq])] = val
		}
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", nil, 0, fmt.Errorf("want 'name value', got %q", line)
		}
		name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	if !validPromName(name) {
		return "", nil, 0, fmt.Errorf("bad metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("want value [timestamp], got %q", rest)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		// +Inf/-Inf/NaN are legal exposition values.
		switch fields[0] {
		case "+Inf", "-Inf", "Nan", "NaN":
			err = nil
		default:
			return "", nil, 0, fmt.Errorf("bad value %q: %v", fields[0], err)
		}
	}
	if len(fields) == 2 {
		if _, terr := strconv.ParseInt(fields[1], 10, 64); terr != nil {
			return "", nil, 0, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, value, nil
}

// splitPromLabels splits a label body on commas outside quotes.
func splitPromLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				if p := strings.TrimSpace(s[start:i]); p != "" {
					out = append(out, p)
				}
				start = i + 1
			}
		}
	}
	if p := strings.TrimSpace(s[start:]); p != "" {
		out = append(out, p)
	}
	return out
}

func validPromName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
