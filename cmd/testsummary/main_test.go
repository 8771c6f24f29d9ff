package main

import (
	"strings"
	"testing"
)

const stream = `{"Action":"start","Package":"m/a"}
{"Action":"run","Package":"m/a","Test":"TestGood"}
{"Action":"output","Package":"m/a","Test":"TestGood","Output":"noise\n"}
{"Action":"pass","Package":"m/a","Test":"TestGood","Elapsed":0.1}
{"Action":"output","Package":"m/a","Output":"ok  \tm/a\t0.1s\n"}
{"Action":"pass","Package":"m/a","Elapsed":0.1}
{"Action":"run","Package":"m/b","Test":"TestBad"}
{"Action":"output","Package":"m/b","Test":"TestBad","Output":"    b_test.go:9: epoch 3: row 7 = [1], want [2]\n"}
{"Action":"fail","Package":"m/b","Test":"TestBad","Elapsed":0.2}
{"Action":"run","Package":"m/b","Test":"TestFine"}
{"Action":"output","Package":"m/b","Test":"TestFine","Output":"quiet\n"}
{"Action":"pass","Package":"m/b","Test":"TestFine","Elapsed":0}
{"Action":"fail","Package":"m/b","Elapsed":0.3}
{"ImportPath":"m/c [m/c.test]","Action":"build-output","Output":"c_test.go:3:1: syntax error\n"}
{"Action":"fail","Package":"m/c","Elapsed":0,"FailedBuild":"m/c [m/c.test]"}
`

func TestSummarizeGroupsFailuresByPackage(t *testing.T) {
	var out strings.Builder
	if summarize(strings.NewReader(stream), &out) {
		t.Fatal("a stream with failures summarised as ok")
	}
	got := out.String()
	for _, want := range []string{
		"pass  m/a", "FAIL  m/b", "FAIL  m/c", "2 package(s) failed",
		"=== m/b\n--- TestBad\n        b_test.go:9: epoch 3: row 7 = [1], want [2]",
		"=== m/c\n    c_test.go:3:1: syntax error",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary lacks %q:\n%s", want, got)
		}
	}
	for _, not := range []string{"noise", "quiet", "TestFine", "TestGood"} {
		if strings.Contains(got, not) {
			t.Errorf("summary repeats passing output %q:\n%s", not, got)
		}
	}
}

func TestSummarizeVerdicts(t *testing.T) {
	var out strings.Builder
	if !summarize(strings.NewReader(`{"Action":"pass","Package":"m/a","Elapsed":1}`+"\n"), &out) {
		t.Errorf("an all-pass stream failed:\n%s", out.String())
	}
	if summarize(strings.NewReader(""), &out) {
		t.Error("an empty stream (go test never ran) passed")
	}
}
