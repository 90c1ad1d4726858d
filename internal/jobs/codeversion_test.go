package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// resultPins are the sha256 digests of small deterministic jobs' result
// artifacts, serialized as the queue stores them, pinned together with the
// CodeVersion they were taken at.
var resultPins = struct {
	codeVersion string
	digests     map[string]string
}{
	codeVersion: "5",
	digests: map[string]string{
		"modelcheck": "6ca7fcb20d9ea0aded884b31415ca292e317e20c1e2c264747eb51ae12371999",
		"padlint":    "0bd8f2035c521e9cad41e19b67efc8715f3ce283374e876071a9a28575c7f2f0",
	},
}

// TestCodeVersionPinsResults keeps CodeVersion honest: a cached artifact is
// served for as long as a job's identity, which includes CodeVersion, is
// unchanged, so a runner whose output changes must bump it. The test runs
// one modelcheck job (the frontier engine on mcs at n=3 with full
// reduction, whose counts follow the symmetry canonicalizer) and one padlint
// job (mcs, whose witness follows the static analyzers) and compares their
// artifacts with the digests pinned at the current CodeVersion.
func TestCodeVersionPinsResults(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		kind   string
		run    Runner
		params string
	}{
		{"modelcheck", runModelCheck, `{"alg":"mcs","engine":"fast","n":3,"reduce":"full"}`},
		{"padlint", runLint, `{"alg":"mcs"}`},
	} {
		res, err := c.run(ctx, json.RawMessage(c.params))
		if err != nil {
			t.Fatalf("%s %s: %v", c.kind, c.params, err)
		}
		raw, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		got, want := hex.EncodeToString(sum[:]), resultPins.digests[c.kind]
		if got != want || CodeVersion != resultPins.codeVersion {
			t.Errorf("%s %s: artifact digest %s at CodeVersion %q, pinned %s at %q: bump CodeVersion and re-pin\n%s",
				c.kind, c.params, got, CodeVersion, want, resultPins.codeVersion, raw)
		}
	}
}
