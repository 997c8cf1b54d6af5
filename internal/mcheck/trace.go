package mcheck

import (
	"fmt"
	"strconv"
	"strings"

	"twobit/internal/addr"
	"twobit/internal/proto"
	"twobit/internal/system"
)

// Step is one trace action plus the state fingerprint reached by it. A
// fingerprint of 0 marks a step whose application crashed the protocol
// (only possible under injected defects); it must be the final step.
type Step struct {
	Act Action
	Fp  uint64
}

// Trace is a replayable counterexample: the configuration, the action
// path from the initial state, and the identity fingerprint after every
// step. Replay must reproduce each fingerprint exactly.
type Trace struct {
	Cfg       Config
	Init      uint64
	Steps     []Step
	Violation string
}

// Replay re-runs the trace on a fresh machine and verifies the state
// fingerprint after every step, returning an error on the first
// divergence. At the end it also requires the recorded outcome: a crash
// step must crash; a recorded per-state violation (swmr, stale-read,
// deadlock, conformance) must hold on the final state; an oracle
// violation must have been flagged on the way; and a clean trace must
// leave the coherence oracle silent. A livelock has no per-state witness,
// so for it the fingerprint sequence is the whole check.
func Replay(t Trace) error {
	h, err := newMachine(t.Cfg)
	if err != nil {
		return err
	}
	enc := newEncoder(t.Cfg)
	if fp := enc.fingerprint(h); fp != t.Init {
		return fmt.Errorf("mcheck: initial state fingerprint %#x, trace says %#x", fp, t.Init)
	}
	for i, s := range t.Steps {
		if err := h.apply(s.Act); err != nil {
			if s.Fp == 0 && i == len(t.Steps)-1 {
				return nil // the recorded crash reproduced
			}
			return fmt.Errorf("mcheck: step %d (%v) failed: %w", i, s.Act, err)
		}
		if s.Fp == 0 {
			return fmt.Errorf("mcheck: step %d (%v) recorded a crash that did not reproduce", i, s.Act)
		}
		if fp := enc.fingerprint(h); fp != s.Fp {
			return fmt.Errorf("mcheck: step %d (%v) reached state %#x, trace says %#x", i, s.Act, fp, s.Fp)
		}
	}
	var viol *Violation
	kind, _, _ := strings.Cut(t.Violation, ":")
	switch kind {
	case "":
		if viol = checkOracle(h); viol != nil {
			return fmt.Errorf("mcheck: the oracle flagged a clean trace: %s", viol.Detail)
		}
		return nil
	case "oracle":
		viol = checkOracle(h)
	case "swmr", "stale-read", "deadlock", "conformance":
		viol = checkState(h, len(h.deliverOptions()) == 0)
	default:
		return nil
	}
	if viol == nil {
		return fmt.Errorf("mcheck: violation %q did not reproduce", t.Violation)
	}
	if viol.Kind != kind {
		return fmt.Errorf("mcheck: final state violates %q, trace says %q", viol.Kind, kind)
	}
	return nil
}

// TraceOfSchedule runs a fixed action schedule and records the
// fingerprint after every step, producing a replayable (violation-free)
// trace. The §3.2.5 race-schedule tests use this to pin named
// interleavings as golden traces.
func TraceOfSchedule(cfg Config, acts []Action) (Trace, error) {
	h, err := newMachine(cfg)
	if err != nil {
		return Trace{}, err
	}
	enc := newEncoder(cfg)
	t := Trace{Cfg: cfg, Init: enc.fingerprint(h)}
	for i, a := range acts {
		if err := h.apply(a); err != nil {
			return Trace{}, fmt.Errorf("mcheck: schedule step %d (%v): %w", i, a, err)
		}
		t.Steps = append(t.Steps, Step{Act: a, Fp: enc.fingerprint(h)})
	}
	return t, nil
}

// The codec below is a line-oriented text format, chosen over anything
// binary so counterexamples are directly readable in a terminal and
// diffable as golden files. An optional line appears only when its value
// is not the default, so it never changes the traces of a configuration
// without it:
//
//	mcheck-trace v1
//	protocol two-bit
//	caches 2
//	blocks 2
//	sets 1
//	refs 2
//	mode single-command                   (optional)
//	clean-eject off                       (optional)
//	hooks skip-write-miss-invalidate      (optional)
//	init 1a2b3c
//	violation swmr: ...                   (optional)
//	step issue 0 write 1 1a2b3c
//	step deliver 0 2 4d5e6f
//	end

const (
	traceMagic = "mcheck-trace v1"

	hookWriteMissInv = "skip-write-miss-invalidate"
	hookStashedPut   = "skip-stashed-put-consume"
	hookQueueDelete  = "skip-mrequest-queue-delete"
)

func hooksString(h *proto.BugHooks) string {
	if h == nil {
		return ""
	}
	var parts []string
	if h.SkipWriteMissInvalidate {
		parts = append(parts, hookWriteMissInv)
	}
	if h.SkipStashedPutConsume {
		parts = append(parts, hookStashedPut)
	}
	if h.SkipMRequestQueueDelete {
		parts = append(parts, hookQueueDelete)
	}
	return strings.Join(parts, ",")
}

func parseHooks(s string) (*proto.BugHooks, error) {
	h := &proto.BugHooks{}
	for _, part := range strings.Split(s, ",") {
		switch part {
		case hookWriteMissInv:
			h.SkipWriteMissInvalidate = true
		case hookStashedPut:
			h.SkipStashedPutConsume = true
		case hookQueueDelete:
			h.SkipMRequestQueueDelete = true
		default:
			return nil, fmt.Errorf("mcheck: unknown hook %q", part)
		}
	}
	return h, nil
}

// EncodeTrace renders t in the v1 text format.
func EncodeTrace(t Trace) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", traceMagic)
	fmt.Fprintf(&sb, "protocol %s\n", t.Cfg.Protocol)
	fmt.Fprintf(&sb, "caches %d\n", t.Cfg.Caches)
	fmt.Fprintf(&sb, "blocks %d\n", t.Cfg.Blocks)
	fmt.Fprintf(&sb, "sets %d\n", t.Cfg.Sets)
	fmt.Fprintf(&sb, "refs %d\n", t.Cfg.RefsPerProc)
	if t.Cfg.Mode != proto.PerBlock {
		fmt.Fprintf(&sb, "mode %v\n", t.Cfg.Mode)
	}
	if t.Cfg.DisableCleanEject {
		sb.WriteString("clean-eject off\n")
	}
	if hs := hooksString(t.Cfg.Hooks); hs != "" {
		fmt.Fprintf(&sb, "hooks %s\n", hs)
	}
	fmt.Fprintf(&sb, "init %s\n", strconv.FormatUint(t.Init, 16))
	if t.Violation != "" {
		// The violation text must stay one line to stay parseable.
		fmt.Fprintf(&sb, "violation %s\n", strings.ReplaceAll(t.Violation, "\n", " "))
	}
	for _, s := range t.Steps {
		fp := strconv.FormatUint(s.Fp, 16)
		if s.Act.Kind == ActIssue {
			fmt.Fprintf(&sb, "step issue %d %s %d %s\n",
				s.Act.Proc, rwWord(s.Act.Write), int(s.Act.Block), fp)
		} else {
			fmt.Fprintf(&sb, "step deliver %d %d %s\n", s.Act.Src, s.Act.Dst, fp)
		}
	}
	sb.WriteString("end\n")
	return []byte(sb.String())
}

func rwWord(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// DecodeTrace parses the v1 text format, validating every field against
// the header's configuration: processor and block indices must be in
// range, delivery endpoints must name real nodes, and the configuration
// itself must pass Validate. The decoded trace round-trips through
// EncodeTrace byte-for-byte.
func DecodeTrace(data []byte) (Trace, error) {
	var t Trace
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || lines[0] != traceMagic {
		return t, fmt.Errorf("mcheck: not a %q file", traceMagic)
	}
	i := 1
	next := func() (string, bool) {
		if i >= len(lines) {
			return "", false
		}
		l := lines[i]
		i++
		return l, true
	}
	field := func(key string) (string, error) {
		l, ok := next()
		if !ok {
			return "", fmt.Errorf("mcheck: truncated trace: missing %q line", key)
		}
		val, found := strings.CutPrefix(l, key+" ")
		if !found || val == "" {
			return "", fmt.Errorf("mcheck: expected %q line, got %q", key, l)
		}
		return val, nil
	}
	intField := func(key string) (int, error) {
		val, err := field(key)
		if err != nil {
			return 0, err
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return 0, fmt.Errorf("mcheck: bad %s %q", key, val)
		}
		return n, nil
	}

	// optional consumes the next line if it is key's, returning its value.
	optional := func(key string) (string, bool) {
		if i < len(lines) {
			if val, found := strings.CutPrefix(lines[i], key+" "); found {
				i++
				return val, true
			}
		}
		return "", false
	}

	name, err := field("protocol")
	if err != nil {
		return t, err
	}
	if t.Cfg.Protocol, err = system.ParseProtocol(name); err != nil {
		return t, err
	}
	if t.Cfg.Caches, err = intField("caches"); err != nil {
		return t, err
	}
	if t.Cfg.Blocks, err = intField("blocks"); err != nil {
		return t, err
	}
	if t.Cfg.Sets, err = intField("sets"); err != nil {
		return t, err
	}
	if t.Cfg.RefsPerProc, err = intField("refs"); err != nil {
		return t, err
	}
	if val, ok := optional("mode"); ok {
		if val != proto.SingleCommand.String() {
			return t, fmt.Errorf("mcheck: bad mode %q", val)
		}
		t.Cfg.Mode = proto.SingleCommand
	}
	if val, ok := optional("clean-eject"); ok {
		if val != "off" {
			return t, fmt.Errorf("mcheck: bad clean-eject %q", val)
		}
		t.Cfg.DisableCleanEject = true
	}
	if hs, ok := optional("hooks"); ok {
		if t.Cfg.Hooks, err = parseHooks(hs); err != nil {
			return t, err
		}
		if hooksString(t.Cfg.Hooks) != hs {
			return t, fmt.Errorf("mcheck: non-canonical hooks line %q", hs)
		}
	}
	if err := t.Cfg.Validate(); err != nil {
		return t, err
	}
	initHex, err := field("init")
	if err != nil {
		return t, err
	}
	if t.Init, err = parseFp(initHex); err != nil {
		return t, err
	}

	for {
		l, ok := next()
		if !ok {
			return t, fmt.Errorf("mcheck: truncated trace: missing %q line", "end")
		}
		if l == "end" {
			break
		}
		if v, found := strings.CutPrefix(l, "violation "); found {
			if t.Violation != "" || len(t.Steps) > 0 {
				return t, fmt.Errorf("mcheck: misplaced violation line")
			}
			t.Violation = v
			continue
		}
		body, found := strings.CutPrefix(l, "step ")
		if !found {
			return t, fmt.Errorf("mcheck: expected step or end, got %q", l)
		}
		s, err := parseStep(body, t.Cfg)
		if err != nil {
			return t, err
		}
		if n := len(t.Steps); n > 0 && t.Steps[n-1].Fp == 0 {
			return t, fmt.Errorf("mcheck: step after a crashed step")
		}
		t.Steps = append(t.Steps, s)
	}
	for ; i < len(lines); i++ {
		if lines[i] != "" {
			return t, fmt.Errorf("mcheck: trailing content after end: %q", lines[i])
		}
	}
	return t, nil
}

// parseFp parses a canonical (lowercase, no leading zeros) hex
// fingerprint. Canonical form is required so decode∘encode is the
// identity on every accepted input.
func parseFp(s string) (uint64, error) {
	fp, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("mcheck: bad fingerprint %q", s)
	}
	if s != strconv.FormatUint(fp, 16) {
		return 0, fmt.Errorf("mcheck: non-canonical fingerprint %q", s)
	}
	return fp, nil
}

func parseStep(body string, cfg Config) (Step, error) {
	var s Step
	f := strings.Split(body, " ")
	bad := func() (Step, error) { return s, fmt.Errorf("mcheck: bad step %q", body) }
	switch {
	case len(f) == 5 && f[0] == "issue":
		proc, err1 := strconv.Atoi(f[1])
		blk, err2 := strconv.Atoi(f[3])
		if err1 != nil || err2 != nil || (f[2] != "read" && f[2] != "write") {
			return bad()
		}
		if proc < 0 || proc >= cfg.Caches || blk < 0 || blk >= cfg.Blocks {
			return s, fmt.Errorf("mcheck: step %q out of configured range", body)
		}
		s.Act = Action{Kind: ActIssue, Proc: proc, Write: f[2] == "write", Block: addr.Block(blk)}
		fp, err := parseFp(f[4])
		if err != nil {
			return s, err
		}
		s.Fp = fp
	case len(f) == 4 && f[0] == "deliver":
		src, err1 := strconv.Atoi(f[1])
		dst, err2 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil {
			return bad()
		}
		if src < 0 || src > cfg.Caches || dst < 0 || dst > cfg.Caches {
			return s, fmt.Errorf("mcheck: step %q out of configured range", body)
		}
		s.Act = Action{Kind: ActDeliver, Src: src, Dst: dst}
		fp, err := parseFp(f[3])
		if err != nil {
			return s, err
		}
		s.Fp = fp
	default:
		return bad()
	}
	return s, nil
}
