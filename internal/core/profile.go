package core

import (
	"sort"

	"smartoclock/internal/stats"
)

// A profile report reads the median power of the last profileWindow closed
// slots and the mean requested cores of the last requestWindow. The sOA keeps
// those slots and no others.
const profileWindow, requestWindow = 10, 5

// ProfileSlot is one closed profile slot: the server's power reading when
// the slot closed and the cores that requested overclocking during it,
// rejected demand included.
type ProfileSlot struct {
	Watts     float64 `json:"watts"`
	Requested int     `json:"requested"`
}

// profileRing holds the last profileWindow closed slots; once full, each
// push overwrites the oldest.
type profileRing struct {
	slots   [profileWindow]ProfileSlot
	n, next int // slots held; where the next push writes
}

func (r *profileRing) push(s ProfileSlot) {
	r.slots[r.next] = s
	r.next = (r.next + 1) % profileWindow
	r.n = min(r.n+1, profileWindow)
}

// at returns the i-th oldest slot held.
func (r *profileRing) at(i int) ProfileSlot {
	return r.slots[(r.next-r.n+i+profileWindow)%profileWindow]
}

// RecentProfile returns what the sOA's profile report carries: the median
// power of the held slots (the live reading before the first slot closes),
// the mean cores requested over the last requestWindow slots (the open
// slot's count before the first closes), never below the cores granted now,
// and the cores granted now. It allocates nothing: the median sorts a fixed
// scratch array with stats.Median's interpolation.
func (a *SOA) RecentProfile() (medianWatts, requested, granted float64) {
	r := &a.profile
	if r.n == 0 {
		medianWatts, requested = a.host.Power(), float64(a.slotRequested)
	} else {
		var scratch [profileWindow]float64
		sum := 0.0
		for i := 0; i < r.n; i++ {
			slot := r.at(i)
			scratch[i] = slot.Watts
			if i >= r.n-requestWindow {
				sum += float64(slot.Requested)
			}
		}
		sort.Float64s(scratch[:r.n])
		medianWatts = stats.PercentileSorted(scratch[:r.n], 50)
		requested = sum / float64(min(r.n, requestWindow))
	}
	granted = float64(a.ActiveOCCores())
	if granted > requested {
		requested = granted
	}
	return medianWatts, requested, granted
}
