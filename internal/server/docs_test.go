package server

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// docFieldRow matches a field row of a marked table in OPERATIONS.md:
// "| `field_name` | ...". Only backticked names in the first column count,
// so prose references elsewhere in the section cannot satisfy the check.
var docFieldRow = regexp.MustCompile("(?m)^\\| `([a-z0-9_]+)`")

// docFields parses the fields documented between the
// "<!-- fields:<section>:begin -->" and ":end" markers of path.
func docFields(t *testing.T, path, section string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v (the stats tables there are kept in sync with the code by this test)", path, err)
	}
	begin := "<!-- fields:" + section + ":begin -->"
	end := "<!-- fields:" + section + ":end -->"
	_, rest, ok := strings.Cut(string(data), begin)
	if !ok {
		t.Fatalf("%s: marker %q not found", path, begin)
	}
	body, _, ok := strings.Cut(rest, end)
	if !ok {
		t.Fatalf("%s: marker %q not found", path, end)
	}
	fields := make(map[string]bool)
	for _, m := range docFieldRow.FindAllStringSubmatch(body, -1) {
		fields[m[1]] = true
	}
	if len(fields) == 0 {
		t.Fatalf("%s: section %s documents no fields", path, section)
	}
	return fields
}

// jsonFields reflects the JSON field names a struct value marshals to.
func jsonFields(t *testing.T, v any) map[string]bool {
	t.Helper()
	fields := make(map[string]bool)
	rt := reflect.TypeOf(v)
	for i := 0; i < rt.NumField(); i++ {
		tag := rt.Field(i).Tag.Get("json")
		name, _, _ := strings.Cut(tag, ",")
		if name == "" || name == "-" {
			continue
		}
		fields[name] = true
	}
	return fields
}

// checkFieldDrift asserts doc and code agree in both directions.
func checkFieldDrift(t *testing.T, what string, code, doc map[string]bool) {
	t.Helper()
	for f := range code {
		if !doc[f] {
			t.Errorf("%s: field %q is emitted by the server but not documented in docs/OPERATIONS.md", what, f)
		}
	}
	for f := range doc {
		if !code[f] {
			t.Errorf("%s: field %q is documented in docs/OPERATIONS.md but the server no longer emits it", what, f)
		}
	}
}

const operationsDoc = "../../docs/OPERATIONS.md"

// TestStatsFieldsDocumented pins every /v1/stats JSON field to a row in the
// OPERATIONS.md stats table, and vice versa: the doc cannot drift from the
// response in either direction.
func TestStatsFieldsDocumented(t *testing.T) {
	checkFieldDrift(t, "/v1/stats",
		jsonFields(t, statsResponse{}),
		docFields(t, operationsDoc, "server-stats"))
}

// TestDatasetFieldsDocumented does the same for the per-dataset objects
// served by /v1/datasets (and embedded in /v1/stats under "datasets").
func TestDatasetFieldsDocumented(t *testing.T) {
	checkFieldDrift(t, "/v1/datasets",
		jsonFields(t, DatasetInfo{}),
		docFields(t, operationsDoc, "server-datasets"))
}

// TestTopKEnvelopeDocumented pins the /v1/topk response envelope to the
// OPERATIONS.md server-topk table.
func TestTopKEnvelopeDocumented(t *testing.T) {
	checkFieldDrift(t, "/v1/topk",
		jsonFields(t, topKResponse{}),
		docFields(t, operationsDoc, "server-topk"))
}

// TestQueryEnvelopeDocumented pins the /v1/query response envelope — the
// top-level payload, the per-statement objects, and the per-node objects —
// to the OPERATIONS.md server-query table.
func TestQueryEnvelopeDocumented(t *testing.T) {
	code := jsonFields(t, queryResponse{})
	for f := range jsonFields(t, statementResult{}) {
		code[f] = true
	}
	for f := range jsonFields(t, nodeResult{}) {
		code[f] = true
	}
	checkFieldDrift(t, "/v1/query", code, docFields(t, operationsDoc, "server-query"))
}
