package server

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
)

// TestWarmSolvesAcrossRequests drives the cross-request warm path: the
// second request differs from the first only in scratchpad size, so it
// must be served with a transferred cutoff (counted by
// casa_server_warm_solves_total) and still return the same answer a
// cold server gives.
func TestWarmSolvesAcrossRequests(t *testing.T) {
	ts := httptest.NewServer(New(testConfig()).Handler())
	defer ts.Close()

	warmed := obs.GetCounter("casa_server_warm_solves_total")
	base := warmed.Value()

	first := allocate(t, ts.URL, adpcmBody(128))
	if got := warmed.Value(); got != base {
		t.Fatalf("first request (no donor) warmed: counter %d, want %d", got, base)
	}
	second := allocate(t, ts.URL, adpcmBody(192))
	if got := warmed.Value(); got != base+1 {
		t.Fatalf("second request (single-parameter neighbor) counter = %d, want %d", got, base+1)
	}

	// Same answers as a cold server.
	cold := httptest.NewServer(New(testConfig()).Handler())
	defer cold.Close()
	coldFirst := allocate(t, cold.URL, adpcmBody(128))
	coldSecond := allocate(t, cold.URL, adpcmBody(192))
	for _, pair := range []struct {
		name       string
		warm, cold *Response
	}{{"spm=128", first, coldFirst}, {"spm=192", second, coldSecond}} {
		if pair.warm.EnergyMicroJ != pair.cold.EnergyMicroJ ||
			pair.warm.PlacedTraces != pair.cold.PlacedTraces ||
			pair.warm.UsedBytes != pair.cold.UsedBytes {
			t.Errorf("%s: warm answer diverged from cold: warm %+v cold %+v",
				pair.name, pair.warm, pair.cold)
		}
	}
}

// TestWarmBasisTransferAcrossRequests drives the warm path where the
// neighbor differs in cache geometry, not scratchpad size: such donors
// share the recipient's trace partition (same capacity, same line
// size), so besides a cutoff the donor hands over its simplex basis and
// pseudocosts. The transfer must be counted — basis reuse actually
// fired, the test is not passing vacuously on a cold solve — and the
// warm response must be identical to a cold server's golden answer.
func TestWarmBasisTransferAcrossRequests(t *testing.T) {
	ts := httptest.NewServer(New(testConfig()).Handler())
	defer ts.Close()

	warmed := obs.GetCounter("casa_server_warm_solves_total")
	reused := obs.GetCounter("casa_ilp_basis_reuse_total")
	warmBase, reuseBase := warmed.Value(), reused.Value()

	body := func(cacheBytes int) string {
		return fmt.Sprintf(`{"workload":"adpcm","hierarchy":{"cache_bytes":%d,"spm_bytes":128}}`, cacheBytes)
	}
	allocate(t, ts.URL, body(1024))
	warm := allocate(t, ts.URL, body(512))
	if got := warmed.Value(); got != warmBase+1 {
		t.Fatalf("cache-geometry neighbor not served warm: counter = %d, want %d", got, warmBase+1)
	}
	if got := reused.Value(); got <= reuseBase {
		t.Fatalf("warm solve installed no donor basis: casa_ilp_basis_reuse_total = %d, want > %d", got, reuseBase)
	}

	cold := httptest.NewServer(New(testConfig()).Handler())
	defer cold.Close()
	golden := allocate(t, cold.URL, body(512))
	if warm.EnergyMicroJ != golden.EnergyMicroJ ||
		warm.BaselineMicroJ != golden.BaselineMicroJ ||
		warm.EnergySavingPct != golden.EnergySavingPct ||
		warm.PlacedTraces != golden.PlacedTraces ||
		warm.UsedBytes != golden.UsedBytes ||
		warm.Degraded != golden.Degraded {
		t.Errorf("basis-transferred answer diverged from cold golden:\nwarm %+v\ncold %+v", warm, golden)
	}
}
