package runner

import (
	"encoding/json"
	"fmt"
	"testing"

	"evclimate/internal/cabin"
	"evclimate/internal/sim"
)

// FuzzParseJournal hardens the resume path against arbitrary journal
// bytes — the file a crashed process leaves behind is untrusted input.
// Invariants: no panics; on success ValidLen is a sane byte offset and
// the valid prefix re-parses cleanly (same records, never torn), which
// is exactly what resumeJournal relies on when it truncates a torn tail.
func FuzzParseJournal(f *testing.F) {
	header := fmt.Sprintf(`{"kind":"header","version":%d,"label":"x","sweep_fingerprint":"00000000deadbeef","git":"g","go_version":"go1","jobs":2}`, JournalVersion)
	rec0 := `{"kind":"job","index":0,"fingerprint":"00000000deadbeef","seed":1,"elapsed_ns":5,"result":{"Controller":"On/Off"}}`
	rec1 := `{"kind":"job","index":1,"fingerprint":"00000000feedface","seed":2,"elapsed_ns":7,"err":"boom"}`
	// A record as this schema writes it: the trace is one packed string.
	packed, err := json.Marshal(&JournalRecord{Kind: "job", Index: 1, Fingerprint: "00000000feedface", Seed: 2,
		Result: &sim.Result{Controller: "On/Off", Trace: sim.Trace{
			Time: []float64{0, 1}, CabinC: []float64{30, 29.5}, SoC: []float64{},
			Inputs: []cabin.Inputs{{SupplyTempC: 12, AirFlowKgS: 0.1}, {Recirc: 0.5}},
		}}})
	if err != nil {
		f.Fatal(err)
	}
	v1 := `{"kind":"header","version":1,"label":"x","sweep_fingerprint":"00000000deadbeef","git":"g","go_version":"go1","jobs":2}`
	f.Add([]byte(header + "\n" + rec0 + "\n" + rec1 + "\n"))
	f.Add([]byte(header + "\n" + rec0 + "\n" + string(packed) + "\n"))
	f.Add([]byte(header + "\n" + string(packed[:len(packed)/2])))         // torn inside the packed trace
	f.Add([]byte(v1 + "\n" + rec0 + "\n"))                                // another schema: refused
	f.Add([]byte(header + "\n" + rec0 + "\n" + `{"kind":"job","ind`))     // crash mid-append
	f.Add([]byte(header + "\n" + rec0 + "\n" + "garbage\n"))              // corrupt final line
	f.Add([]byte(header + "\n" + "garbage\n" + rec0 + "\n"))              // corrupt middle line
	f.Add([]byte(header + "\n" + rec0 + "\n" + rec0 + "\n"))              // duplicate index: last wins
	f.Add([]byte(header + "\n\n" + rec0 + "\n\n"))                        // blank lines
	f.Add([]byte(header + "\n" + `{"kind":"job","index":-1}` + "\n"))     // negative index
	f.Add([]byte(header + "\n" + `{"kind":"header","version":1}` + "\n")) // header where a job belongs
	f.Add([]byte(header))                                                 // header without newline
	f.Add([]byte("\n\n"))
	f.Add([]byte(""))
	f.Add([]byte("not a journal\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ParseJournal(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if rep.ValidLen < 0 || rep.ValidLen > int64(len(data)) {
			t.Fatalf("ValidLen %d outside [0, %d]", rep.ValidLen, len(data))
		}
		if rep.Header.Kind != "header" {
			t.Fatalf("accepted journal without header record: %+v", rep.Header)
		}
		prefix, err := ParseJournal(data[:rep.ValidLen])
		if err != nil {
			t.Fatalf("valid prefix does not re-parse: %v", err)
		}
		if prefix.Torn {
			t.Fatal("valid prefix parses as torn")
		}
		if len(prefix.Records) != len(rep.Records) {
			t.Fatalf("prefix has %d records, original %d", len(prefix.Records), len(rep.Records))
		}
		for idx := range rep.Records {
			if prefix.Records[idx] == nil {
				t.Fatalf("record %d lost in prefix re-parse", idx)
			}
		}
	})
}
