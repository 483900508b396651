// Package fixture exercises the launchpath analyzer: fabricating the
// model's result types outside internal/gpu — composite literals, field
// writes, and zero-value escapes — carries // want comments where the
// result is forged; results genuinely derived from Device.Launch, and
// callers that pass a forged result on, are false-positive coverage.
package fixture

import "gpu"

// fabricate builds a modeled result by hand, bypassing the timing model.
func fabricate() gpu.LaunchResult {
	return gpu.LaunchResult{Name: "fake", Time: 1} // want "Device.Launch"
}

// handOcc computes occupancy outside the device model.
func handOcc() gpu.Occupancy {
	return gpu.Occupancy{BlocksPerSM: 16, WarpsPerSM: 32} // want "occupancy is computed by Device.Launch"
}

// launch obtains results the sanctioned way.
func launch(d *gpu.Device) (gpu.LaunchResult, error) {
	return d.Launch("k")
}

// LaunchResult is a like-named local type: not the model's, not flagged.
type LaunchResult struct{ Name string }

func local() LaunchResult { return LaunchResult{Name: "mine"} }

// suppressed shows a suppressed, reasoned exception.
func suppressed() gpu.LaunchResult {
	//lint:ignore launchpath fixture exercising suppression
	return gpu.LaunchResult{Name: "golden"}
}

// helperFab launders a result without a composite literal — the hole
// the old package-position check left open.
func helperFab() gpu.LaunchResult {
	var r gpu.LaunchResult
	r.Time = 2 // want "field write to gpu.LaunchResult"
	return r
}

// escape re-exports helperFab's fabrication through a plain call: the
// finding belongs to helperFab, where the result is forged.
func escape() gpu.LaunchResult {
	return helperFab()
}

// zeroOnly lets an untouched zero value escape as if it were modeled.
func zeroOnly() gpu.Occupancy {
	var o gpu.Occupancy
	return o // want "zero-value gpu.Occupancy escapes"
}

// bump mutates a modeled result in place.
func bump(r *gpu.LaunchResult) {
	r.Time++ // want "field write to gpu.LaunchResult"
}

// passthrough derives its result from the device: clean.
func passthrough(d *gpu.Device) gpu.LaunchResult {
	r, _ := d.Launch("k")
	return r
}

// maxTime selects among modeled results; best is wholly reassigned from
// modeled values, so its zero declaration is not an escape.
func maxTime(rs []gpu.LaunchResult) gpu.LaunchResult {
	var best gpu.LaunchResult
	for _, r := range rs {
		if r.Time > best.Time {
			best = r
		}
	}
	return best
}

// copyOut copies modeled results into a fresh slice: make+copy is clean.
func copyOut(rs []gpu.LaunchResult) []gpu.LaunchResult {
	out := make([]gpu.LaunchResult, len(rs))
	copy(out, rs)
	return out
}

// provider dispatch: forger.result is reported where it forges, and
// viaIface, which only passes the result on, is not.
type provider interface{ result() gpu.LaunchResult }

type forger struct{}

func (forger) result() gpu.LaunchResult {
	var r gpu.LaunchResult
	r.Name = "forged" // want "field write to gpu.LaunchResult"
	return r
}

func viaIface(p provider) gpu.LaunchResult {
	return p.result()
}

var _ = []any{fabricate, handOcc, launch, local, suppressed, helperFab,
	escape, zeroOnly, bump, passthrough, maxTime, copyOut, viaIface}
