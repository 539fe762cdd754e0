// Package obstest checks span trees for tests.
package obstest

import (
	"fmt"
	"strings"

	"dfg/internal/obs"
)

// Stages checks that the stages of sp partition it, and the stages of
// each stage partition that stage: the first starts where sp does, each
// next at the exact instant its predecessor ended, and the last ends
// where sp does, so their durations sum to sp's exactly. It returns the
// names of sp's stages in order, nested ones in brackets after their
// parent ("fallback[plan]").
func Stages(sp *obs.Span) ([]string, error) {
	stages := sp.Stages()
	if len(stages) == 0 {
		return nil, fmt.Errorf("%s: no stages", sp.Name)
	}
	names := make([]string, len(stages))
	at := sp.Start
	var sum int64
	for i, st := range stages {
		if !st.Start.Equal(at) {
			return nil, fmt.Errorf("%s: stage %d (%s) starts %v after its predecessor ended", sp.Name, i, st.Name, st.Start.Sub(at))
		}
		sum += int64(st.Duration())
		at = st.End
		names[i] = st.Name
		if len(st.Stages()) > 0 {
			inner, err := Stages(st)
			if err != nil {
				return nil, err
			}
			names[i] += "[" + strings.Join(inner, " ") + "]"
		}
	}
	if !at.Equal(sp.End) {
		return nil, fmt.Errorf("%s: the last stage ends %v before the span", sp.Name, sp.End.Sub(at))
	}
	if sum != int64(sp.Duration()) {
		return nil, fmt.Errorf("%s: stages sum to %dns, the span lasts %v", sp.Name, sum, sp.Duration())
	}
	return names, nil
}
