package system_test

import (
	"errors"
	"testing"

	"twobit/internal/mcheck"
	"twobit/internal/proto"
	"twobit/internal/system"
)

// The scenarios below were once explored by a bounded replay-DFS of their
// own, over fixed per-processor scripts. Each now runs the exhaustive
// internal/mcheck closure that contains every interleaving of it — on the
// same machine, the simulator's ReplayMachine — and requires it clean:
// the scripts are one choice of the closure's issue options, and each of
// their delivery orders is one of its paths. The closures' caches are
// direct-mapped with one set, so block 1 stands in for the scripts'
// conflicting blocks 4 and 8.

// closure is the p closure over caches caches and blocks blocks with refs
// references per processor.
func closure(p system.Protocol, caches, blocks, refs int) mcheck.Config {
	return mcheck.Config{Protocol: p, Caches: caches, Blocks: blocks, Sets: 1, RefsPerProc: refs}
}

func checkClosure(t *testing.T, cfg mcheck.Config) mcheck.Result {
	t.Helper()
	res, err := mcheck.Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil || res.Truncated {
		t.Fatalf("%v: violation %v (truncated %v)", cfg.Protocol, res.Violation, res.Truncated)
	}
	return res
}

// eachProtocol runs the scenario's closure under each protocol it was
// pinned for.
func eachProtocol(t *testing.T, cfg func(system.Protocol) mcheck.Config) {
	for _, p := range []system.Protocol{system.TwoBit, system.FullMap, system.Classical, system.Software} {
		t.Run(p.String(), func(t *testing.T) { checkClosure(t, cfg(p)) })
	}
}

// TestModelCheckRacingStores: the §3.2.5 scenario — both processors read
// block 0 then store to it — is in every 2-cache, 1-block closure of two
// references.
func TestModelCheckRacingStores(t *testing.T) {
	eachProtocol(t, func(p system.Protocol) mcheck.Config { return closure(p, 2, 1, 2) })
}

// TestModelCheckEvictionVsQuery: processor 0 dirties block 0 and evicts
// it, then the conflicting block, while processor 1 reads block 0 — in
// the 2-block closure of three references. Under the software partition
// block 0 is public and never cached, as it was shared in the scenario,
// so the evictions are of processor 0's private blocks 1 and 2.
func TestModelCheckEvictionVsQuery(t *testing.T) {
	eachProtocol(t, func(p system.Protocol) mcheck.Config {
		if p == system.Software {
			return closure(p, 2, 3, 3)
		}
		return closure(p, 2, 2, 3)
	})
}

// TestModelCheckThreeWayWrites: three processors storing to one block
// with no prior copies.
func TestModelCheckThreeWayWrites(t *testing.T) { checkClosure(t, closure(system.TwoBit, 3, 1, 2)) }

// TestModelCheckReaderWriterChurn: a write-write / read-read ping-pong.
func TestModelCheckReaderWriterChurn(t *testing.T) { checkClosure(t, closure(system.TwoBit, 2, 1, 2)) }

// TestModelCheckReportsDepth: a store then a load must take at least a
// REQUEST and its get.
func TestModelCheckReportsDepth(t *testing.T) {
	if res := checkClosure(t, closure(system.TwoBit, 2, 1, 2)); res.Depth < 2 || res.RestStates == 0 {
		t.Fatalf("depth %d, %d rest states: want ≥ 2 and some", res.Depth, res.RestStates)
	}
}

func TestModelCheckValidation(t *testing.T) {
	for _, cfg := range []mcheck.Config{closure(system.TwoBit, 2, 0, 2), closure(system.TwoBit, 1, 1, 2)} {
		if _, err := mcheck.Check(cfg); err == nil {
			t.Errorf("%+v accepted", cfg)
		}
	}
}

// TestModelCheckYenFuExclusive: the §2.4.3 extension whose
// synchronization the paper notes was "not fully resolved in [10]" —
// exclusive grants, silent upgrades, the pessimistic m bit.
func TestModelCheckYenFuExclusive(t *testing.T) {
	for name, cfg := range map[string]mcheck.Config{
		// P0 gets an exclusive grant and silently upgrades while P1 reads.
		"silent-upgrade-vs-read": closure(system.FullMapExclusive, 2, 1, 2),
		// Both race a cold read; one gets exclusivity, then both write.
		"cold-race-then-writes": closure(system.FullMapExclusive, 2, 1, 2),
		// The exclusive owner ejects a clean copy while the pessimistic m
		// bit stands; P1 then reads.
		"exclusive-clean-eject": closure(system.FullMapExclusive, 2, 2, 2),
	} {
		t.Run(name, func(t *testing.T) { checkClosure(t, cfg) })
	}
}

// TestModelCheckWithDisabledCleanEject: the racing stores under the
// paper's optional-EJECT variant.
func TestModelCheckWithDisabledCleanEject(t *testing.T) {
	cfg := closure(system.TwoBit, 2, 1, 2)
	cfg.DisableCleanEject = true
	checkClosure(t, cfg)
}

// TestModelCheckSingleCommandMode: the racing stores under the §3.2.5
// option-1 controller.
func TestModelCheckSingleCommandMode(t *testing.T) {
	cfg := closure(system.TwoBit, 2, 1, 2)
	cfg.Mode = proto.SingleCommand
	checkClosure(t, cfg)
}

// TestReplayMachineRefusesBusProtocol: write-once transacts on the
// snooping bus, so there is no message delivery for a replay to choose —
// a named error, not a panic in assembly, whichever network the config
// names.
func TestReplayMachineRefusesBusProtocol(t *testing.T) {
	for _, net := range []system.NetKind{system.BusNet, system.CrossbarNet} {
		cfg := system.DefaultConfig(system.WriteOnce, 2)
		cfg.Net = net
		if _, err := system.NewReplayMachine(cfg, 4); !errors.Is(err, system.ErrBusProtocol) {
			t.Errorf("%v network: err = %v, want system.ErrBusProtocol", net, err)
		}
	}
}
