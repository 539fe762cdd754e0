package dataflow_test

import (
	"encoding/json"
	"strings"
	"testing"

	"dfg/internal/dataflow/dftest"
)

func TestNetworkJSONShape(t *testing.T) {
	nw := dftest.New()
	nw.AddSource("u")
	c := nw.AddConst(2)
	m, _ := nw.AddFilter("mul", c, "u")
	nw.SetOutput(m)
	data, err := json.Marshal(nw)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, frag := range []string{`"filter":"source"`, `"filter":"const"`, `"value":2`, `"output":"t1"`} {
		if !strings.Contains(s, frag) {
			t.Errorf("JSON missing %q:\n%s", frag, s)
		}
	}
}
