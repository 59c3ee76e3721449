package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// servePaths are the parameterized endpoints FuzzServeParams drives.
var servePaths = []string{"/field/point", "/field/range", "/field/agg"}

// FuzzServeParams feeds raw query strings to the parameterized endpoints
// of a mux with a published snapshot. Whatever the query, the handler
// must not panic, must answer 200, 400 or 503, and every 200 must carry a
// valid JSON body.
func FuzzServeParams(f *testing.F) {
	f.Add(uint8(0), "row=1&col=2")
	f.Add(uint8(0), "row=99&col=-1")
	f.Add(uint8(1), "row0=0&col0=0&row1=7&col1=7&filter=value%20%3E%2010")
	f.Add(uint8(1), "row0=5&col0=5&row1=1&col1=1")
	f.Add(uint8(2), "zone=3&op=max")
	f.Add(uint8(2), "op=mean&filter=value%20%3C%200")
	f.Add(uint8(2), "zone=%zz;op=")
	mux := testMux(f, true)
	f.Fuzz(func(t *testing.T, path uint8, rawQuery string) {
		req := httptest.NewRequest(http.MethodGet, servePaths[int(path)%len(servePaths)], nil)
		req.URL.RawQuery = rawQuery
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s?%s: 200 with invalid JSON body %q", req.URL.Path, rawQuery, rec.Body.String())
			}
		case http.StatusBadRequest, http.StatusServiceUnavailable:
		default:
			t.Fatalf("%s?%s: status %d (body %q), want 200, 400 or 503", req.URL.Path, rawQuery, rec.Code, rec.Body.String())
		}
	})
}
