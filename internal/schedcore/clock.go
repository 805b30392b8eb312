package schedcore

// Clock abstracts the scheduler's notion of "now" (seconds since an
// arbitrary epoch) so one Core serves two very different drivers: the
// discrete-event simulator advances a ManualClock to its virtual event
// time, while the real-time serving front-end sets one from its own
// time source before each round. The core itself never calls time.Now
// for timestamps — decision latency instrumentation (Stats.DecisionTime)
// is the one deliberate exception, because it measures real CPU cost
// regardless of the driver.
type Clock interface {
	// Now returns the current time in seconds since the clock's epoch.
	Now() float64
}

// ManualClock is a Clock advanced explicitly by its driver — the
// simulator sets it to each event's virtual time. The zero value reads 0.
// It is not safe for concurrent use; the single-writer rule that guards
// the Core covers its clock too.
type ManualClock struct {
	now float64
}

// NewManualClock returns a manual clock reading start.
func NewManualClock(start float64) *ManualClock { return &ManualClock{now: start} }

// Now returns the last value set.
func (m *ManualClock) Now() float64 { return m.now }

// Set moves the clock to t. Moving backwards is allowed; the Core does
// not interpret timestamps, it only stamps them onto decisions.
func (m *ManualClock) Set(t float64) { m.now = t }

// zeroClock is the allocation-free default for a Core built without
// WithClock: every decision is stamped 0.
type zeroClock struct{}

func (zeroClock) Now() float64 { return 0 }
