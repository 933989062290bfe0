package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vcache"
)

// goldenFingerprint reduces one campaign's results to a comparable,
// order-independent fingerprint: verdict counters, the coverage site-set
// signature, every bug manifestation with its discovery iteration, and
// the rejection histograms.
type goldenFingerprint struct {
	Accepted    int
	CovCount    int
	CovSig      uint64
	Corpus      int
	Errno       map[int]int
	Bugs        []string
	RejectWords []string
}

func fingerprintStats(st *Stats) goldenFingerprint {
	fp := goldenFingerprint{
		Accepted: st.Accepted,
		CovCount: st.Coverage.Count(),
		CovSig:   st.Coverage.Signature(),
		Corpus:   st.CorpusSize,
		Errno:    st.ErrnoHist,
	}
	for k, rec := range st.Bugs {
		fp.Bugs = append(fp.Bugs, fmt.Sprintf("%s@%d", k, rec.FoundAt))
	}
	sort.Strings(fp.Bugs)
	for w, n := range st.RejectReasons {
		fp.RejectWords = append(fp.RejectWords, fmt.Sprintf("%s:%d", w, n))
	}
	sort.Strings(fp.RejectWords)
	return fp
}

func goldenCampaign() *Campaign {
	return NewCampaign(CampaignConfig{
		Source: BVFSource(true), Version: kernel.BPFNext, Sanitize: true,
		Seed: 7,
	})
}

// TestSeededCampaignDeterminism pins the golden fixed-seed campaign
// fingerprint. The hot-path optimizations (state pooling,
// fingerprint-gated pruning, the unsynchronized coverage fast path, lazy
// rejection errors) are required to be bit-identical rewrites — any
// drift in verdicts, findings, discovery iterations, coverage site sets
// or rejection reasons fails here. A second run of the same seed must
// also reproduce the first run exactly.
func TestSeededCampaignDeterminism(t *testing.T) {
	st, err := goldenCampaign().Run(3000)
	if err != nil {
		t.Fatal(err)
	}
	got := fingerprintStats(st)

	// Golden for the sibling-batch scheduler (MutateBatch 16): re-pinned
	// when batching replaced one-mutant-per-pick scheduling, which
	// changed the generate/mutate mix of the fixed-seed trajectory.
	want := goldenFingerprint{
		Accepted: 1090,
		CovCount: 216,
		CovSig:   0x2a6422c0d1764db8,
		Corpus:   97,
		Errno:    map[int]int{13: 1848, 22: 62},
		Bugs: []string{
			"bug1-nullness-propagation/indicator1/kasan:null-ptr-deref@1171",
			"bug11-xdp-device-prog/indicator0/xdp-env@140",
			"bug3-kfunc-backtracking/indicator1/alu-limit-violation@1710",
			"bug4-trace-printk-attach/indicator2/lockdep:possible recursive locking detected@1271",
			"bug5-contention-begin-attach/indicator2/trace-recursion@1321",
			"bug7-dispatcher-sync/indicator1/kasan:null-ptr-deref@127",
			"bug8-kmemdup-limit/indicator0/syscall-warning@439",
			"bug9-bucket-iteration/indicator1/kasan:slab-out-of-bounds@738",
		},
		RejectWords: []string{
			"R0:312", "R1:266", "R2:21", "R3:21", "R4:17", "R5:41", "R6:186",
			"R7:134", "R8:102", "R9:84", "btf::32", "helper:358", "infinite:1",
			"invalid:267", "kmemdup:5", "math:16", "same:47",
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("campaign fingerprint drifted from golden:\n got %+v\nwant %+v", got, want)
	}

	// Same seed, second campaign object: identical in every compared
	// dimension, including the coverage site-set signature.
	st2, err := goldenCampaign().Run(3000)
	if err != nil {
		t.Fatal(err)
	}
	if got2 := fingerprintStats(st2); !reflect.DeepEqual(got2, got) {
		t.Errorf("same seed, different results:\nfirst  %+v\nsecond %+v", got, got2)
	}

	// Same seed with the verdict cache armed: the cache is required to be
	// a bit-identical rewrite of the verification pipeline — memoized
	// verdicts and replayed coverage must leave every compared dimension
	// untouched. The cache must also actually be
	// exercised, or this proves nothing.
	cached := NewCampaign(CampaignConfig{
		Source: BVFSource(true), Version: kernel.BPFNext, Sanitize: true,
		Seed: 7, Cache: vcache.NewStore(0),
	})
	st3, err := cached.Run(3000)
	if err != nil {
		t.Fatal(err)
	}
	if got3 := fingerprintStats(st3); !reflect.DeepEqual(got3, got) {
		t.Errorf("verdict cache changed campaign results:\ncache-off %+v\ncache-on  %+v", got, got3)
	}
	if st3.CacheHits == 0 {
		t.Error("cache-on golden campaign recorded zero cache hits")
	}
	if st3.CacheHits+st3.CacheMisses == 0 || st3.CacheMisses == 0 {
		t.Errorf("implausible cache counters: hits=%d misses=%d", st3.CacheHits, st3.CacheMisses)
	}
	t.Logf("cache-on golden campaign: %d hits / %d misses", st3.CacheHits, st3.CacheMisses)

	// Batch-off legs (MutateBatch 1, classic one-mutant-per-pick
	// scheduling). Batching is a deliberate scheduling change, so this
	// trajectory legitimately differs from the golden above — but the
	// cache-transparency contract must hold on every scheduling: the
	// cache-off and cache-on runs of the classic scheduler must agree in
	// every compared dimension, with the cache genuinely exercised.
	classic := func(cache *vcache.Store) *Campaign {
		cfg := CampaignConfig{
			Source: BVFSource(true), Version: kernel.BPFNext, Sanitize: true,
			Seed: 7, MutateBatch: 1,
		}
		if cache != nil {
			cfg.Cache = cache
		}
		return NewCampaign(cfg)
	}
	st4, err := classic(nil).Run(3000)
	if err != nil {
		t.Fatal(err)
	}
	st5, err := classic(vcache.NewStore(0)).Run(3000)
	if err != nil {
		t.Fatal(err)
	}
	got4, got5 := fingerprintStats(st4), fingerprintStats(st5)
	if !reflect.DeepEqual(got5, got4) {
		t.Errorf("batch-off: verdict cache changed campaign results:\ncache-off %+v\ncache-on  %+v", got4, got5)
	}
	if reflect.DeepEqual(got4, got) {
		t.Error("batch-off trajectory identical to batch-on golden; scheduling knob is dead")
	}
	if st5.CacheHits == 0 {
		t.Error("batch-off cache-on campaign recorded zero cache hits")
	}
	if st4.MutateBatches != st4.MutateSiblings {
		t.Errorf("batch-off scheduling emitted %d siblings over %d batches; want 1:1",
			st4.MutateSiblings, st4.MutateBatches)
	}
	t.Logf("batch-off cache-on campaign: %d hits / %d misses",
		st5.CacheHits, st5.CacheMisses)
}
