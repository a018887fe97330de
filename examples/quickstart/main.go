// Quickstart: the paper's Listing 1 ("import bohrium as np"), in Go.
//
// A 10-element zero vector receives three `+= 1` operations. The front-end
// records the byte-code of Listing 2; the algebraic optimizer merges the
// three BH_ADDs into one (Listing 3); the VM executes a single sweep.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"bohrium"
)

func main() {
	ctx := bohrium.NewContext(nil)
	defer ctx.Close()

	// Listing 1, line for line.
	a := listing1(ctx)

	fmt.Println("recorded byte-code (paper Listing 2):")
	fmt.Print(ctx.PendingProgram())

	data, err := a.Data() // flush: optimize + execute
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\noptimizer report:")
	fmt.Print(ctx.LastReport())

	fmt.Println("\nresult:")
	fmt.Println(data)

	st := ctx.MustStats()
	fmt.Printf("\nVM did %d sweep(s) over memory for %d byte-code(s)\n",
		st.Sweeps, st.Instructions)
}

// listing1 records the paper's Listing 1: a 10-element zero vector and
// three `+= 1` operations, nothing computed yet.
func listing1(ctx *bohrium.Context) *bohrium.Array {
	a := ctx.Zeros(10)
	a.AddC(1)
	a.AddC(1)
	a.AddC(1)
	return a
}
