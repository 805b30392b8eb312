// Command user is the deadcode fixture's only shipped caller.
package main

import (
	"fmt"

	"gputopo/internal/lint/deadcode/testdata/src/deadcodetest"
)

func main() {
	xs := []string{"ccc", "a", "bb"}
	deadcodetest.SortByLen(xs)
	var b deadcodetest.Box[int]
	fmt.Println(xs, deadcodetest.Unit().Area(), deadcodetest.ApplyDouble(3),
		deadcodetest.Max(1, 2), b.Get())
}
