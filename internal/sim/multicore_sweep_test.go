package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"runtime"
	"testing"
	"time"

	"mlpcache/internal/simerr"
	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

// sweepMixes are the heterogeneous workload mixes the multi-core
// sweep runs: distinct benchmarks per core so contention, cross-core
// merges and per-thread cost clocks all see asymmetric traffic.
var sweepMixes = map[string][]string{
	"mcf+art":    {"mcf", "art"},
	"parser+mcf": {"parser", "mcf"},
}

func mixSources(t *testing.T, names []string, cores int) []trace.Source {
	t.Helper()
	srcs := make([]trace.Source, cores)
	for i := 0; i < cores; i++ {
		spec, ok := workload.ByName(names[i%len(names)])
		if !ok {
			t.Fatalf("benchmark %q missing", names[i%len(names)])
		}
		srcs[i] = spec.Build(uint64(11 + i))
	}
	return srcs
}

// serialSweepDigests pins the multi-core run loop's results for every
// case of TestParallelMatchesSerial and TestParallelMatchesSerialNoFastForward,
// keyed by test name: the SHA-256 of the MultiResult and its aggregate and
// per-core cost histograms. The sweep once held a goroutine wavefront
// engine to the serial loop; the digests were recorded on the serial loop
// before that engine was removed, so the sweep now referees the one loop
// against those results.
var serialSweepDigests = map[string]string{
	"TestParallelMatchesSerial/mcf+art/bandit/1":     "ead57d286ea56bcd2e24e04d63a46991dde52cb6e1e4df83953bfc681682ffe4",
	"TestParallelMatchesSerial/mcf+art/bandit/2":     "f14396a7b8a50c72eab9a2e2d0d4026d98f8fad6f1d4a2760a4043a0741809ba",
	"TestParallelMatchesSerial/mcf+art/bandit/4":     "f407d5fe29c601f99d4bc1896b69ef8bcc7dc4f74747d6bbc9609fb9f727b2f1",
	"TestParallelMatchesSerial/mcf+art/learned/1":    "268477945897a12af166906a51f35e97e0e0ed7836cb945a1702cccb0a16f6cc",
	"TestParallelMatchesSerial/mcf+art/learned/2":    "19ad4abf00658dcf9d6b2a45fca6dbb7402997a7a36b2409f209d70a7abfbe66",
	"TestParallelMatchesSerial/mcf+art/learned/4":    "1ff882184d8531ca3abc94a01bf2a97bc64f95f47e12088b132d400620efaa2e",
	"TestParallelMatchesSerial/mcf+art/lin/1":        "fa8ffdde70c5fc7a5554dbe37f4b199f6b62843abeb7243daba07e8bdf4a5dfc",
	"TestParallelMatchesSerial/mcf+art/lin/2":        "984b02b4aa4d05d8fd61943de2d0534fd186bcd296cc517754eaf9b337d1cc4d",
	"TestParallelMatchesSerial/mcf+art/lin/4":        "8c9b93d166515f97856d8deb5dd9b51d39dc48f144cbee33b96bd075275fbc5a",
	"TestParallelMatchesSerial/mcf+art/lru/1":        "215a2a5775435a1ca2c6014cbdc1fb1933bea8bf82e9e6f83d3772b4b4161bb8",
	"TestParallelMatchesSerial/mcf+art/lru/2":        "a0bb960d077ac80dddaff68f652785ab6c981fbd9827ac2f2f15d939097fc10d",
	"TestParallelMatchesSerial/mcf+art/lru/4":        "2e9acc0c6846461d2ab36f22a92fc1576b5c1082e95084d92106838807a4cbc9",
	"TestParallelMatchesSerial/mcf+art/sbar/1":       "2780f842f6a678a4fad4ab2c49ee928eb2431489e515ff0b3942e57fb4b8d0d8",
	"TestParallelMatchesSerial/mcf+art/sbar/2":       "8f094f0a9a99f794214465610c81b7cb23ba31014acd749d1c7541c7265d16f2",
	"TestParallelMatchesSerial/mcf+art/sbar/4":       "7ce1e9f24dde29e5a7931562e6a7c3c917ef559089a3e7d1ca3d8de4f35f3e3d",
	"TestParallelMatchesSerial/parser+mcf/bandit/1":  "677254bd83d494c11ec826163cf5baa9e78e9d8778d39bb731aaf0da5b578d72",
	"TestParallelMatchesSerial/parser+mcf/bandit/2":  "24e8aac4677a648d59c63c809866607429d209c93563daf9c2664f54afa8f88e",
	"TestParallelMatchesSerial/parser+mcf/bandit/4":  "de9f9a3fbcbc445a9c05ef40b6ae886e842f2e737911c381c65be03b7c25eeb8",
	"TestParallelMatchesSerial/parser+mcf/learned/1": "a8effd3a17a93c10063486670359b57da82f0b833e816899ee857b89352c425e",
	"TestParallelMatchesSerial/parser+mcf/learned/2": "9d31cf64ef75c477c47c85a02163cc918435d6b279d544a9cdf4ac6c380c7a40",
	"TestParallelMatchesSerial/parser+mcf/learned/4": "75dd63f46658c3f31585fd25e5572c014688720bb6d27b2691e188c616846c84",
	"TestParallelMatchesSerial/parser+mcf/lin/1":     "da8a831d63783abb4fb2f6ad98b57eac6ef3979950c453309dbe0ec949a02785",
	"TestParallelMatchesSerial/parser+mcf/lin/2":     "f5fe5e61789ce85d406125b281635870d82699955bd189bcb3a3fa5f19f02832",
	"TestParallelMatchesSerial/parser+mcf/lin/4":     "9e7dbba2c32df3e8b46a61ec161d149844bdc11458c12598df5604a555e82f31",
	"TestParallelMatchesSerial/parser+mcf/lru/1":     "8b13385868c05b279753f0b014f51edbb68bfede69f0644d51c561937c8a633d",
	"TestParallelMatchesSerial/parser+mcf/lru/2":     "ff923c500a164e6243b5ec4e0d4d2de4f2b3974209e9d3d507ca1f89247b0f69",
	"TestParallelMatchesSerial/parser+mcf/lru/4":     "0aeb08652b0fc720ff06f58d318f26316ce002e063df5d4ba528e70379dd43ef",
	"TestParallelMatchesSerial/parser+mcf/sbar/1":    "8639da139f577cb3facd3886ccb5d4635257a19d9dea920b8e4831caa9ceeb1e",
	"TestParallelMatchesSerial/parser+mcf/sbar/2":    "b02ab22dbba71b12b653c6a557d21eb1135b0bd8589561796bb85b8c67ee3d82",
	"TestParallelMatchesSerial/parser+mcf/sbar/4":    "f2f8942d7c76b270a9e404fc1af3eac9344369cd8c9db58e05744fa602fc9489",
	"TestParallelMatchesSerialNoFastForward":         "5012c4c563c9aac347625d501bcfc56677327fda0c8b91eb4b16243b63f914c2",
}

// checkSweepDigest compares a sweep result with its recorded digest.
func checkSweepDigest(t *testing.T, res MultiResult) {
	t.Helper()
	h := sha256.New()
	writeJSON(t, h, "result", res)
	writeJSON(t, h, "hist", digestHist(res.CostHist))
	for j, c := range res.Cores {
		writeJSON(t, h, "core"+itoa(j)+"/hist", digestHist(c.CostHist))
	}
	got := hex.EncodeToString(h.Sum(nil))
	if want := serialSweepDigests[t.Name()]; got != want {
		t.Errorf("%s: result digest %s, want %s", t.Name(), got, want)
	}
}

// TestParallelMatchesSerial runs the policy × cores × mix sweep (the
// bandit and the learned predictor included) and requires every
// MultiResult — every counter block, histogram, PSEL value and the final
// cycle count — to match the serial results recorded in
// serialSweepDigests.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is a long test")
	}
	for mixName, mix := range sweepMixes {
		for _, kind := range []PolicyKind{PolicyLRU, PolicyLIN, PolicySBAR, PolicyBandit, PolicyLearned} {
			for _, cores := range []int{1, 2, 4} {
				mix, kind, cores := mix, kind, cores
				t.Run(mixName+"/"+string(kind)+"/"+itoa(cores), func(t *testing.T) {
					t.Parallel()
					cfg := DefaultConfig()
					cfg.MaxInstructions = 40_000
					cfg.Policy = PolicySpec{Kind: kind, Seed: 7}
					res, err := RunMulti(cfg, mixSources(t, mix, cores)...)
					if err != nil {
						t.Fatalf("run failed: %v", err)
					}
					checkSweepDigest(t, res)
				})
			}
		}
	}
}

// TestParallelMatchesSerialNoFastForward pins the burn-every-cycle path:
// with fast-forward disabled the result must still match the recorded
// serial result.
func TestParallelMatchesSerialNoFastForward(t *testing.T) {
	if testing.Short() {
		t.Skip("burns every stall cycle")
	}
	cfg := DefaultConfig()
	cfg.MaxInstructions = 5_000
	cfg.DisableFastForward = true
	res, err := RunMulti(cfg, mixSources(t, []string{"mcf", "art"}, 2)...)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	checkSweepDigest(t, res)
}

// TestParallelCancellation cancels a 4-core run before it starts and
// mid-flight: both must return ErrCancelled, and no goroutine may outlive
// the call.
func TestParallelCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig()
	cfg.MaxInstructions = 5_000_000 // far more work than the deadline allows
	_, err := RunMultiContext(ctx, cfg, mixSources(t, []string{"mcf", "art"}, 4)...)
	if !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}

	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err = RunMultiContext(ctx, cfg, mixSources(t, []string{"mcf", "art"}, 4)...)
	if !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("want ErrCancelled after deadline, got %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked across a cancelled run: %d before, %d after", before, after)
	}
}

// TestParallelPanicIsInternalError injects a panic into a 4-core run's
// miss path (via MissHook) and requires the run to surface ErrInternal
// instead of unwinding into the caller.
func TestParallelPanicIsInternalError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInstructions = 200_000
	hooked := 0
	cfg.MissHook = func(addr uint64, costQ uint8) {
		hooked++
		if hooked == 100 {
			panic("injected fault")
		}
	}
	_, err := RunMulti(cfg, mixSources(t, []string{"mcf", "art"}, 4)...)
	if !errors.Is(err, simerr.ErrInternal) {
		t.Fatalf("want ErrInternal, got %v", err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
