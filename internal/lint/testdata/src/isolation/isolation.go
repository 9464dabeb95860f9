//lint:simulator
package isolation

import "lowmemroute/internal/congest"

// counters is package-level mutable state no vertex handler may touch.
var counters []int

func handler(v int, ctx *congest.Ctx) {
	counters = append(counters, v) // want `package-level variable counters`
	ctx.Mem().Charge(1)
}

func drive(sim *congest.Simulator) {
	sim.Broadcast(nil, func(v int, d *congest.Delivery) {
		sim.Mem(v).Charge(1)
		sim.Mem(v + 1).Charge(1) // want `another vertex's meter`
		sim.AddRounds(1)         // want `Simulator.AddRounds`
	})
	sim.Convergecast(0, nil, collector)
}

func collector(m *congest.BroadcastMsg) {
	counters = nil // want `package-level variable counters`
}
