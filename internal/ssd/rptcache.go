package ssd

import (
	"fmt"
	"sync"

	"readretry/internal/rpt"
	"readretry/internal/vth"
)

// rptMemoKey identifies a profiled RPT exactly: the table is a pure function
// of the error-model parameters, the process-variation seed, and the RPT
// configuration. vth.Params is all scalars and compares directly; rpt.Config
// holds bucket-bound slices, so it enters the key as a canonical fingerprint.
type rptMemoKey struct {
	params vth.Params
	seed   uint64
	cfg    string
}

func rptConfigFingerprint(c rpt.Config) string {
	return fmt.Sprintf("%v|%v|%d|%g|%d",
		c.PECBounds, c.RetBounds, c.SafetyMarginBits, c.ProfileTempC, c.MaxLevel)
}

// rptMemoTable holds the profiled tables shared across devices.
type rptMemoTable struct {
	mu sync.Mutex
	m  map[rptMemoKey]*rpt.Table // guarded by mu
}

var rptMemo = rptMemoTable{m: make(map[rptMemoKey]*rpt.Table)}

// profiledTable returns the memoized RPT for the model, profiling it on
// first use. Every adaptive-scheme cell of a sweep used to re-profile the
// identical table in ssd.New; now a sweep profiles each distinct
// (parameters, seed, config) once and the devices share the (immutable,
// read-only) result.
func profiledTable(model *vth.Model, params vth.Params, seed uint64, cfg rpt.Config) (*rpt.Table, error) {
	key := rptMemoKey{params: params, seed: seed, cfg: rptConfigFingerprint(cfg)}
	return rptMemo.get(key, func() (*rpt.Table, error) { return rpt.Profile(model, cfg) })
}

// get returns the table stored under key, storing profile's result on a
// miss. Profiling runs under the lock, so concurrent cells needing the same
// table profile it once.
func (m *rptMemoTable) get(key rptMemoKey, profile func() (*rpt.Table, error)) (*rpt.Table, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.m[key]; ok {
		return t, nil
	}
	t, err := profile()
	if err != nil {
		return nil, err
	}
	m.m[key] = t
	return t, nil
}
