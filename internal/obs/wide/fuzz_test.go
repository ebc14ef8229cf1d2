package wide

import (
	"net/url"
	"strings"
	"testing"
)

// FuzzParseQuery feeds the /debug/events query parser arbitrary
// where/group/agg/window/limit parameters (where split on ';' into
// repeated values). ParseQuery must return an error or a Query whose
// fields are known dimensions, whose aggregate is known, and whose
// window and limit are usable.
func FuzzParseQuery(f *testing.F) {
	f.Add("kind=http;quarter=2014Q1", "route", "p99", "5m", "10")
	f.Add("code=5xx", "", "", "", "")
	f.Add("bogus=1", "kind", "count", "1h", "1")
	f.Add("kind", "nope", "p42", "-1s", "0")
	f.Add("", "", "avg", "0s", "-3")
	f.Add("stale=true;stale=false", "cache", "max", "1ns", "999999999999999999999")
	f.Fuzz(func(t *testing.T, where, group, agg, window, limit string) {
		v := url.Values{}
		for _, w := range strings.Split(where, ";") {
			if w != "" {
				v.Add("where", w)
			}
		}
		v.Set("group", group)
		v.Set("agg", agg)
		v.Set("window", window)
		v.Set("limit", limit)
		q, err := ParseQuery(v)
		if err != nil {
			return
		}
		for _, c := range q.Where {
			if !queryFields[c.Field] {
				t.Fatalf("where field %q accepted", c.Field)
			}
		}
		if q.Group != "" && !queryFields[q.Group] {
			t.Fatalf("group %q accepted", q.Group)
		}
		if !aggregates[q.Agg] {
			t.Fatalf("aggregate %q accepted", q.Agg)
		}
		if q.Window < 0 {
			t.Fatalf("window %v accepted", q.Window)
		}
		if q.Limit <= 0 {
			t.Fatalf("limit %d accepted", q.Limit)
		}
	})
}
