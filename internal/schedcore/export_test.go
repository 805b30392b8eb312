package schedcore

import (
	"gputopo/internal/core"
	"gputopo/internal/job"
)

// Hooks for the sweep tests (sweep_test.go), which live in package
// schedcore_test so that they can compare the class sweep with the
// differential harness's reference: difftest imports schedcore.

var (
	NewSched       = newSched
	MkJob          = mkJob
	MapperUpTo4    = mapperUpTo4
	EstimateDemand = estimateDemand
)

const RaceEnabled = raceEnabled

// Attempt runs the Core's placer on j without committing.
func (c *Core) Attempt(j *job.Job) (*core.Placement, string) { return c.place.attempt(j) }

// Mapper returns the mapper the Core's placer scores with.
func (c *Core) Mapper() *core.Mapper { return c.place.mapper }

// Scored, Visited and Bounded report the last single-node sweep: the
// classes it mapped, the machines whose bus it checked and the classes
// it bounded.
func (c *Core) Scored() int  { return c.place.scored }
func (c *Core) Visited() int { return c.place.visited }
func (c *Core) Bounded() int { return len(c.place.classes) }
