package sim_test

import (
	"strings"
	"testing"

	"bespoke/internal/bitsim"
	"bespoke/internal/netlist"
	"bespoke/internal/sim"
)

// memLoop builds a netlist whose only combinational cycle closes through
// a memory's read path: the read data, through a buffer, drives the
// memory's own address bit. The read-data net is an Input-kind gate, so
// netlist.Validate sees no cycle; only the levelizer, which adds each
// block's input->output edges, can.
func memLoop(t *testing.T) (n *netlist.Netlist, rdata, addr, en netlist.GateID) {
	t.Helper()
	n = netlist.New()
	en = n.Add(netlist.Gate{Kind: netlist.Input, Name: "en"})
	rdata = n.Add(netlist.Gate{Kind: netlist.Input, Name: "rdata"})
	addr = n.Add(netlist.Gate{Kind: netlist.Buf, In: [3]netlist.GateID{rdata, netlist.None, netlist.None}, Name: "addr"})
	n.MarkOutput("addr", addr)
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate rejected the read-path loop: %v", err)
	}
	return n, rdata, addr, en
}

func TestEnginesRejectMemoryReadPathCycle(t *testing.T) {
	ids := func(g netlist.GateID) []netlist.GateID { return []netlist.GateID{g} }
	for _, tc := range []struct {
		name string
		new  func(n *netlist.Netlist, rdata, addr, en netlist.GateID) error
	}{
		{"sim/rom", func(n *netlist.Netlist, rdata, addr, en netlist.GateID) error {
			_, err := sim.New(n, sim.NewROM(ids(addr), ids(rdata), en))
			return err
		}},
		{"sim/ram", func(n *netlist.Netlist, rdata, addr, en netlist.GateID) error {
			_, err := sim.New(n, sim.NewRAM(ids(addr), ids(en), ids(rdata), en, en, en))
			return err
		}},
		{"bitsim/rom", func(n *netlist.Netlist, rdata, addr, en netlist.GateID) error {
			_, err := bitsim.New(n, bitsim.NewROM(sim.NewROM(ids(addr), ids(rdata), en)))
			return err
		}},
		{"bitsim/ram", func(n *netlist.Netlist, rdata, addr, en netlist.GateID) error {
			_, err := bitsim.New(n, bitsim.NewRAM(sim.NewRAM(ids(addr), ids(en), ids(rdata), en, en, en)))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, rdata, addr, en := memLoop(t)
			err := tc.new(n, rdata, addr, en)
			if err == nil {
				t.Fatal("accepted a combinational cycle through the memory read path")
			}
			if !strings.Contains(err.Error(), "combinational cycle") {
				t.Fatalf("error %q does not name a combinational cycle", err)
			}
		})
	}
}
