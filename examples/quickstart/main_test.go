package main

import (
	"testing"

	"bohrium"
)

// TestListing1 smoke-tests the example's core computation: three merged
// adds over a zero vector yield 3 everywhere — in the default pipeline,
// with the optimizer off, and through the async submit/wait pipeline.
func TestListing1(t *testing.T) {
	configs := map[string]*bohrium.Config{
		"default": nil,
		"async":   {Async: true},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			ctx := bohrium.NewContext(cfg)
			defer ctx.Close()
			a := listing1(ctx)
			data, err := a.Data()
			if err != nil {
				t.Fatal(err)
			}
			if len(data) != 10 {
				t.Fatalf("len = %d, want 10", len(data))
			}
			for i, v := range data {
				if v != 3 {
					t.Fatalf("a[%d] = %v, want 3", i, v)
				}
			}
		})
	}
}
