package mcheck

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzTraceCodec fuzzes the counterexample trace codec: arbitrary bytes
// must never panic the decoder, and anything that decodes must be a
// fixed point of encode∘decode — the byte-stability the golden race
// traces and the mcheck→sim bridge both depend on. The committed corpus
// under testdata/fuzz seeds real traces (a golden race schedule, a
// hooked counterexample with a violation line and a crash step) so the
// fuzzer starts from structurally valid inputs.
func FuzzTraceCodec(f *testing.F) {
	// Seed every golden race trace plus the in-code edge cases.
	goldens, _ := filepath.Glob(filepath.Join("testdata", "race_*.trace"))
	for _, g := range goldens {
		if data, err := os.ReadFile(g); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte("mcheck-trace v1\n"))
	f.Add([]byte("mcheck-trace v1\nprotocol two-bit\ncaches 2\nblocks 1\nsets 1\nrefs 1\ninit 0\nend\n"))
	f.Add([]byte("mcheck-trace v1\nprotocol full-map\ncaches 3\nblocks 2\nsets 2\nrefs 2\ninit abc\nstep issue 2 read 1 1f\nend\n"))
	f.Add([]byte("mcheck-trace v1\nprotocol two-bit\ncaches 2\nblocks 1\nsets 1\nrefs 2\nhooks skip-write-miss-invalidate\ninit 9\nviolation stale-read: cache 0 holds v0\nstep issue 0 write 0 a1\nstep deliver 0 2 0\nend\n"))
	// Real clean traces of classical, of software, and of the two-bit
	// single-command controller with clean ejects off (both optional
	// header lines).
	f.Add([]byte("mcheck-trace v1\nprotocol classical\ncaches 2\nblocks 1\nsets 1\nrefs 1\ninit e7339ae80a947981\nstep issue 0 write 0 80d69caf075aa136\nstep issue 1 read 0 9571597dbb56b808\nstep deliver 0 2 9e34eae4a4c791ae\nstep deliver 1 2 368368b4a2e5ec2b\nstep deliver 2 1 f134d9677c14bab9\nstep deliver 1 2 9ef52eb5199bf8ae\nstep deliver 2 0 1eba6300f346dc0d\nstep deliver 2 1 82f0d2c6574b3c5f\nend\n"))
	f.Add([]byte("mcheck-trace v1\nprotocol software\ncaches 2\nblocks 2\nsets 1\nrefs 1\ninit c08bf1ac4d2a8f20\nstep issue 0 write 0 2ebbbfef930a29d\nstep issue 1 read 0 251f02878fe05d11\nstep deliver 0 2 c2122dedb92e286e\nstep deliver 1 2 701308f5249d8b75\nstep deliver 2 0 157a191be8b782f0\nstep deliver 2 1 ec80bbde64942138\nend\n"))
	f.Add([]byte("mcheck-trace v1\nprotocol two-bit\ncaches 2\nblocks 1\nsets 1\nrefs 1\nmode single-command\nclean-eject off\ninit 17d9c15239d081d5\nstep issue 0 write 0 238a8fd1f102bf1d\nstep issue 1 read 0 c3f678854771d311\nstep deliver 0 2 c1e11bb7742ad92b\nstep deliver 1 2 2cc1d466c4f79256\nstep deliver 2 0 9b8783bd03738aa8\nstep deliver 2 0 a17125fb62c33195\nstep deliver 0 2 e4a639c97a7a36e1\nstep deliver 2 1 226454464345e5a1\nend\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrace(data)
		if err != nil {
			return // rejecting malformed input is the correct outcome
		}
		enc := EncodeTrace(tr)
		tr2, err := DecodeTrace(enc)
		if err != nil {
			t.Fatalf("own encoding failed to decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("decode(encode(t)) != t:\n  first  %+v\n  second %+v", tr, tr2)
		}
		if enc2 := EncodeTrace(tr2); !bytes.Equal(enc, enc2) {
			t.Fatalf("codec has no fixed point:\n  first  %s\n  second %s", enc, enc2)
		}
	})
}
