package trace

import (
	"fmt"
	"time"

	"smartoclock/internal/machine"
)

// Deployment arrivals for the oversubscription experiments: a deterministic
// stream of servers asking to be placed on a rack, each carrying a severity
// class, a hardware model, a service load shape and a description of how
// much (and how fresh) power history exists to fit its day template. Like
// the zoo, every field of arrival i is a pure hash of (seed, i), so a
// simulation consuming the stream is byte-identical regardless of worker
// count or dispatch order, and arrival i can be generated without
// generating arrivals 0..i-1.

// Hash-stream tags for the arrival generator, disjoint from the zoo's tags
// so the two never correlate.
const (
	arrTagAt = 100 + iota
	arrTagSeverity
	arrTagCores
	arrTagService
	arrTagHistory
	arrTagAge
)

// Arrival is one deployment asking for rack placement.
type Arrival struct {
	// Index is the arrival's position in the stream.
	Index int
	// At is the arrival's offset from the run start.
	At time.Duration
	// Name identifies the deployment.
	Name string
	// Severity is the capping class: 0 is most critical (capped last),
	// higher classes are more sheddable (capped first). The range matches
	// power.Severity but stays an int here to keep trace decoupled.
	Severity int
	// HW is the server hardware model; its nameplate is the conservative
	// admission fallback.
	HW machine.Config
	// Service is the load shape that drives the deployment's utilization.
	Service ServiceProfile
	// HistoryDays is how many days of power history exist to fit a day
	// template; 0 means none — admission must fall back to the nameplate.
	HistoryDays int
	// TemplateAgeDays is how old the fitted template is at the run start;
	// ages beyond the admission policy's freshness bound force the same
	// conservative fallback as absent history.
	TemplateAgeDays int
}

// ArrivalStream generates deployment arrivals as pure functions of
// (Seed, index).
type ArrivalStream struct {
	// Seed is the deterministic generation seed.
	Seed int64
	// Mean is the mean spacing between consecutive arrivals.
	Mean time.Duration
	// N is the stream length.
	N int
}

// NewArrivalStream creates a stream of n arrivals spaced mean apart on
// average. It panics on non-positive mean or negative n — programming
// errors, like the engine's interval checks.
func NewArrivalStream(seed int64, mean time.Duration, n int) *ArrivalStream {
	if mean <= 0 || n < 0 {
		panic(fmt.Sprintf("trace: arrival stream mean %v / n %d", mean, n))
	}
	return &ArrivalStream{Seed: seed, Mean: mean, N: n}
}

// Arrival returns arrival i. Arrival times are strictly increasing in i:
// arrival i lands a hash-jittered fraction into its own slot of width Mean.
func (s *ArrivalStream) Arrival(i int) Arrival {
	u := func(tag uint64) float64 { return zooUnit(s.Seed, tag, uint64(i)) }

	sev := 3
	switch v := u(arrTagSeverity); {
	case v < 0.15:
		sev = 0
	case v < 0.40:
		sev = 1
	case v < 0.70:
		sev = 2
	}

	hw := machine.DefaultConfig()
	switch v := u(arrTagCores); {
	case v < 0.35:
		hw.Cores = 16
	case v < 0.70:
		hw.Cores = 32
	}

	catalog := Catalog()
	svc := catalog[int(zooHash(s.Seed, arrTagService, uint64(i))%uint64(len(catalog)))]

	// Most deployments arrive with one to two weeks of fresh history; a
	// hash-chosen tail has none at all or only a month-old fit, exercising
	// the conservative-admission fallbacks.
	hist, age := 0, 0
	if v := u(arrTagHistory); v >= 0.12 {
		hist = 7 + int(v*8) // 7..14 days
		if w := u(arrTagAge); w < 0.10 {
			age = 30 // stale beyond any sane freshness bound
		} else {
			age = int(w * 4) // 0..3 days
		}
	}

	return Arrival{
		Index:           i,
		At:              time.Duration(float64(s.Mean) * (float64(i) + u(arrTagAt))),
		Name:            fmt.Sprintf("dep-%03d", i),
		Severity:        sev,
		HW:              hw,
		Service:         svc,
		HistoryDays:     hist,
		TemplateAgeDays: age,
	}
}

// DemandWave exposes the zoo's phase-shifted square-wave demand for
// experiments that drive overclocking outside a full ZooScenario: server
// srv of perRack on rack wants overclocking for onFrac of each period,
// phase-shifted so the rack's demand is staggered rather than synchronized.
func DemandWave(rack, srv, perRack int, since, period time.Duration, onFrac float64) bool {
	return phasedDemand(rack, srv, perRack, since, period, onFrac)
}

// BenignUtil exposes the zoo's baseline utilization generator: mild
// per-minute jitter around a low background level and a high hot level.
func BenignUtil(seed int64, rack, srv int, since time.Duration, hot bool) float64 {
	return benignUtil(seed, rack, srv, since, hot)
}
