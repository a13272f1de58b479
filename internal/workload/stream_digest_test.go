package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"mlpcache/internal/trace"
)

// streamDigestLen is how many instructions of each model the stream
// digest covers.
const streamDigestLen = 300_000

// goldenStreamDigests pins the first streamDigestLen instructions of
// every registered model at seeds 42 and 7, as read through Next. The
// simulator's results follow from which misses these streams make
// isolated and which parallel (Figure 1), so a generator change meant
// to preserve behaviour must leave every digest unchanged.
var goldenStreamDigests = map[string]string{
	"ammp/42":            "ad76257d658ad4b4925b8f4c0d7dba5fb8cd078557dd19f87a385b33ea39974a",
	"ammp/7":             "78539c3e59c3528429ff2617f98fc5c6569cead83945414dd0644cc20f40cb3b",
	"apsi/42":            "6383f2ebc666df3515d909891b94a25d62f96f0f5c95cfa9d7751d8819959bc9",
	"apsi/7":             "ea96ae4dd27bbca5700c795fe568564cb64701447c67cd52b0e36cd5605cbc3c",
	"art/42":             "dea9b5d2cb670d9000a8e4bc3cec493950c9f80f0e2b9c48462ccab1e9d84cfb",
	"art/7":              "c0795c1e83cda44b12318e7c99e008812c9631c5d119c81575d9951e699e591d",
	"bzip2/42":           "9eeb850470bbae129955501fddf1a63119234abc6adfbd736958c7c4803caf66",
	"bzip2/7":            "6bbb11f990cbea25bee3731020b87ced4bd20de01c0bcd119cbbcdea0124b7ba",
	"equake/42":          "adad961d60a890064557123003d460ada7da3e923130f263882e7b7df15c88a2",
	"equake/7":           "204a3d1ae0a19b4c52bd34dfe45841663e0672e741432e63d55c40a105019f4d",
	"facerec/42":         "e47740296189737c5ad40cac52d3da55d01bbb71c0178568ecc941a3c77fb819",
	"facerec/7":          "d27202c3583edf2df73a3ead6379e8919cd81b4d0aa884c4507c89b5b683c3e1",
	"galgel/42":          "feb1b2dda9113b56fdbde9f4b169cc79ecf87cf8cc06ee4d7fa84cfee0dbb286",
	"galgel/7":           "a8b5d81c49b70b4e5f1fb8cc89385a3bac0236e35a1d202051be2225a8a97fb1",
	"lucas/42":           "62c962ab017560af2c9f6ec7ba575168343ee9be0d6ee5b03e76e8143cdc0054",
	"lucas/7":            "24f62712f72cc3b59ba366b6f492e7fe83718af8f9b0cb90302ca838a6e577a2",
	"mcf/42":             "c7e0e9eb2931a3c4278c4b8c52f4e0172164d09a57d54802f4d3050148daa8e0",
	"mcf/7":              "1ad501de8bd5191fc59c6fe11c295a55bac048bc027e30ab29ebc6e0cac2e300",
	"mgrid/42":           "01ec688dfed242d6801be047d9990847f4a185e1022de3daacb397cfed9fbc5f",
	"mgrid/7":            "bcc652d2bbb9322daf085cab0addbdf244fb619ebc07cfec3a0ee70cec4d3dde",
	"micro.figure1/42":   "eb2b53436b8dab3a32b39d7c9088f26c85051e8bda1280b634e7f34454c746f1",
	"micro.figure1/7":    "2f2c2df869eec985f588e26eb096e92076411f1c8da923af7e6adf255265cc40",
	"micro.isolated/42":  "06f205adb44c06eb39b00002badfd39ddea11c5d06228fc58d3fb1eea69cd6d3",
	"micro.isolated/7":   "39e1f419f2ed9a4cabe272bc8bb0e12f9dce9e4e19f66c2df23931fb61245085",
	"micro.parallel/42":  "c1dadc794c9957d1f520e2fcb3e94ef2457f482f6bb44a3d8d84c578d93374e6",
	"micro.parallel/7":   "8e53322cdb098f58953a9d1d4d6ed53b7d2de9e8d548729368ac5be0be8439bc",
	"micro.phases/42":    "06bb68cdecd4cb325164cc00879bd1aef9fca23d62639730c4ba8b4fdd61f484",
	"micro.phases/7":     "ec3d930ea262622582d3867a5c9e2e28d6568806dfbdf8d04f6b986815ca8931",
	"micro.pollution/42": "36e4d3f1b3a784c34e79db236c3ed2c6e78b88662de00f8c8f763dff6eb5958b",
	"micro.pollution/7":  "15e7ef0ec9cd0830a9baa050013ed2616ba57e71a50d4eaf68a132438b626a53",
	"micro.stores/42":    "a44b4d11683b8a52975f09004c3d59495d841ef140f98a571a6143c3fb6e3d08",
	"micro.stores/7":     "e6924a02e8736b0e77eb3599b2a0bf4e34cb80a957e7a30ce537202be3f72454",
	"parser/42":          "836d0a12c050f1464dd3e93eb6d76a459973300e5a44682db7985ae0dcc87709",
	"parser/7":           "6003aa80ab0cb3da52ac99e61d76ebdcf054bfd2af36910ff92fed9529826a76",
	"sixtrack/42":        "00cfdf8a036f040d9c6b51a5839a9bb7babdb99223bb2cf572357f582f721038",
	"sixtrack/7":         "7d852785ba6f538b3249c8c66c3f291c83b37720923ef98f696ca2108ed37f03",
	"twolf/42":           "0964e33856dcbea646e5b80c18af3cea4d1c6aa9d6c92c51200d99998eecf7b7",
	"twolf/7":            "2d74628181c17e553c06fe122711dfb580d18decafea2978126e4d9800251b05",
	"vpr/42":             "499a8116ef7cfd60e658c4f32b0241718de64bb2b0cba391b98cc765cbf19295",
	"vpr/7":              "1fe5e92f4514b69e0c68b409c274ce46e4ae39b57ee166d4fd011de1c451d7f5",
}

// streamHash hashes instructions in a fixed little-endian layout, one
// 15-byte record per instruction.
type streamHash struct {
	h   hash.Hash
	rec [15]byte
}

func (s *streamHash) add(ins ...trace.Instr) {
	for _, in := range ins {
		binary.LittleEndian.PutUint64(s.rec[0:], in.Addr)
		binary.LittleEndian.PutUint32(s.rec[8:], uint32(in.Dep))
		s.rec[12] = byte(in.Kind)
		s.rec[13], s.rec[14] = 0, 0
		if in.Mispredict {
			s.rec[13] = 1
		}
		if in.Taken {
			s.rec[14] = 1
		}
		s.h.Write(s.rec[:])
	}
}

// digestStream hashes the first streamDigestLen instructions of src.
// Each step draws one instruction through Next when sizes[i] is 0, and
// a trace.Read batch of sizes[i] otherwise, cycling through sizes.
func digestStream(src trace.Source, sizes []int) string {
	s := streamHash{h: sha256.New()}
	buf := make([]trace.Instr, 4096)
	for n, i := 0, 0; n < streamDigestLen; i++ {
		size := min(sizes[i%len(sizes)], streamDigestLen-n)
		if size == 0 {
			in, ok := src.Next()
			if !ok {
				break
			}
			s.add(in)
			n++
			continue
		}
		got := trace.Read(src, buf[:size])
		s.add(buf[:got]...)
		n += got
		if got < size {
			break
		}
	}
	return hex.EncodeToString(s.h.Sum(nil))
}

// TestStreamDigests is the generators' referee: every registered model
// must produce its pinned stream whether it is read one instruction at
// a time, in batches of any size, or by both in turn.
func TestStreamDigests(t *testing.T) {
	modes := map[string][]int{
		"next":        {0},
		"read1":       {1},
		"read3":       {3},
		"read64":      {64},
		"read256":     {256},
		"read4096":    {4096},
		"alternating": {0, 3, 0, 0, 64, 0, 1, 4096, 0, 256},
	}
	names := Registered()
	if len(goldenStreamDigests) != 2*len(names) {
		t.Errorf("%d golden digests for %d registered models at 2 seeds", len(goldenStreamDigests), len(names))
	}
	for _, name := range names {
		spec, _ := ByName(name)
		for _, seed := range []uint64{42, 7} {
			key := fmt.Sprintf("%s/%d", name, seed)
			want, ok := goldenStreamDigests[key]
			if !ok {
				t.Errorf("%s: no golden digest", key)
				continue
			}
			for mode, sizes := range modes {
				if got := digestStream(spec.Build(seed), sizes); got != want {
					t.Errorf("%s via %s: digest %s, want %s", key, mode, got, want)
				}
			}
		}
	}
}
