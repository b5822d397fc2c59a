package trace

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"
)

// SpanData is the immutable canonical form of one finished span: what the
// wire (JSON), the waterfall, and the fingerprint all consume. Children are
// in canonical sibling order (ordinal, then name), so two traces of the
// same work snapshot identically regardless of worker count or completion
// order. Times are offsets from the trace start, in microseconds, so the
// wire form is independent of the absolute clock.
type SpanData struct {
	Name     string      `json:"name"`
	ID       string      `json:"id"`
	StartUs  int64       `json:"start_us"`
	DurUs    int64       `json:"dur_us"`
	Category string      `json:"category,omitempty"`
	Attrs    []Attr      `json:"attrs,omitempty"`
	Children []*SpanData `json:"children,omitempty"`
}

// Snapshot converts a finished span tree into its canonical form. Unended
// spans snapshot with zero duration at their start (a crash-truncated trace
// still renders). Nil-safe: a nil span snapshots to nil.
func Snapshot(root *Span) *SpanData {
	if root == nil {
		return nil
	}
	return snapshotAt(root, root.start)
}

func snapshotAt(s *Span, base time.Time) *SpanData {
	s.mu.Lock()
	end := s.end
	if !s.ended {
		end = s.start // zero-duration placeholder for an unended span
	}
	d := &SpanData{
		Name:     s.name,
		ID:       s.TraceID(),
		StartUs:  s.start.Sub(base).Microseconds(),
		DurUs:    end.Sub(s.start).Microseconds(),
		Category: s.category,
		Attrs:    append([]Attr(nil), s.attrs...),
	}
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	// Canonical sibling order: explicit ordinal first (pool task index or
	// serial creation order), name as the tie-break. Start times are not
	// used — they are scheduling-dependent under concurrency.
	sort.SliceStable(kids, func(i, j int) bool {
		if kids[i].ord != kids[j].ord {
			return kids[i].ord < kids[j].ord
		}
		return kids[i].name < kids[j].name
	})
	for _, c := range kids {
		d.Children = append(d.Children, snapshotAt(c, base))
	}
	return d
}

// SpanCount returns the number of spans in the tree (0 on nil).
func (d *SpanData) SpanCount() int {
	if d == nil {
		return 0
	}
	n := 1
	for _, c := range d.Children {
		n += c.SpanCount()
	}
	return n
}

// Fingerprint hashes the structural identity of the trace — names,
// categories, attributes, and canonical child order — into a 16-hex-digit
// digest. IDs and times are excluded, so the fingerprint is identical for
// the same work at any worker count and under any clock; the determinism
// suites pin exactly this.
func (d *SpanData) Fingerprint() string {
	h := fnv.New64a()
	d.writeCanonical(h)
	return fmt.Sprintf("%016x", h.Sum64())
}

// writeCanonical streams the fingerprinted fields in a prefix-free framing.
func (d *SpanData) writeCanonical(w interface{ Write([]byte) (int, error) }) {
	if d == nil {
		return
	}
	fmt.Fprintf(w, "%d:%s|%d:%s|", len(d.Name), d.Name, len(d.Category), d.Category)
	for _, a := range d.Attrs {
		fmt.Fprintf(w, "a%d:%s=%d:%s|", len(a.Key), a.Key, len(a.Value), a.Value)
	}
	fmt.Fprintf(w, "(%d", len(d.Children))
	for _, c := range d.Children {
		c.writeCanonical(w)
	}
	fmt.Fprint(w, ")")
}

// Render returns the trace tree as indented text, one span per line:
//
//	check 412µs
//	  parse[0] 80µs file=App.java
//	  interpret 290µs steps=1042
//	  rules 31µs
//
// Durations come from the tracer's clock; with the injectable fake clock
// the rendering is byte-stable.
func (d *SpanData) Render() string {
	var sb strings.Builder
	d.render(&sb, 0)
	return sb.String()
}

func (d *SpanData) render(sb *strings.Builder, depth int) {
	if d == nil {
		return
	}
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(d.Name)
	fmt.Fprintf(sb, " %dµs", d.DurUs)
	if d.Category != "" {
		fmt.Fprintf(sb, " [%s]", d.Category)
	}
	for _, a := range d.Attrs {
		fmt.Fprintf(sb, " %s=%s", a.Key, a.Value)
	}
	sb.WriteByte('\n')
	for _, c := range d.Children {
		c.render(sb, depth+1)
	}
}

// waterfallWidth is the bar area of the text waterfall, in cells.
const waterfallWidth = 40

// Waterfall renders the trace as a text waterfall: each span on one line
// with a bar positioned and sized by its start offset and duration relative
// to the whole trace. The inspector's "where did the time go" view:
//
//	check                 412µs  |████████████████████████████████████████|
//	  parse[0]             80µs  |███████                                 |
//	  interpret           290µs  |        ████████████████████████████    |
func (d *SpanData) Waterfall() string {
	if d == nil {
		return ""
	}
	total := d.DurUs
	if total < 1 {
		total = 1
	}
	// First pass: measure the label column so bars align.
	labelW := 0
	d.walk(0, func(depth int, s *SpanData) {
		if w := 2*depth + len(s.Name); w > labelW {
			labelW = w
		}
	})
	var sb strings.Builder
	d.walk(0, func(depth int, s *SpanData) {
		label := strings.Repeat("  ", depth) + s.Name
		fmt.Fprintf(&sb, "%-*s %9dµs  |", labelW, label, s.DurUs)
		from := int(s.StartUs * waterfallWidth / total)
		cells := int(s.DurUs * waterfallWidth / total)
		if cells < 1 {
			cells = 1
		}
		if from >= waterfallWidth {
			from = waterfallWidth - 1
		}
		if from+cells > waterfallWidth {
			cells = waterfallWidth - from
		}
		sb.WriteString(strings.Repeat(" ", from))
		sb.WriteString(strings.Repeat("█", cells))
		sb.WriteString(strings.Repeat(" ", waterfallWidth-from-cells))
		sb.WriteString("|")
		if s.Category != "" {
			fmt.Fprintf(&sb, " [%s]", s.Category)
		}
		sb.WriteByte('\n')
	})
	return sb.String()
}

func (d *SpanData) walk(depth int, f func(depth int, s *SpanData)) {
	f(depth, d)
	for _, c := range d.Children {
		c.walk(depth+1, f)
	}
}

// JSON renders the span tree as indented JSON (the -trace=json CLI dump).
func (d *SpanData) JSON() string {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "{}" // unreachable: SpanData has no unmarshalable fields
	}
	return string(b) + "\n"
}
