package bzip2

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"culzss/internal/datasets"
)

// goldenBZ2 pins the exact .bz2 bytes of goldenBZ2Inputs: per input, the
// SHA-256 of the stream written at level 1 and at level 9. The stdlib
// round trips only prove that output decodes; these digests prove that a
// refactor of the pipeline writes the same bytes as before. A deliberate
// change of the encoder's choices regenerates them and says so.
var goldenBZ2 = map[string][2]string{
	"all_bytes": {
		"76490e63b24cbf9f8e6b28c7d6683c13df82db75706de64e99e3acb81a76d628",
		"bed6af674a57731bb8cab6dd598f24c2edaea16f898aca4fc32c0d0add3854b3",
	},
	"alt": {
		"11915422ecf65832d357bd79747fcfefcef7a511188a1dd815fa37db16704328",
		"63c1c48bde170b5b3d79775b38294ef86745493acc639bd30a5b939f529cc8ab",
	},
	"cfiles": {
		"9878318e477f51ae0831ae3562abe1a62d7fb826f8e827cd0b47a84292bf340f",
		"d9dcd7f6445351f0d9b8f09d5488f1e37151ba0d081d8c131dc9a2026caf0d9e",
	},
	"demap": {
		"c7c635c378a137cae70692bf7f5e4cb2651b77115a339e99e5d507b3ebf28c85",
		"707de2db788763f3227fedb59a46f67c98bdd1fb467f8ddf186f9ae075bb7050",
	},
	"dictionary": {
		"4fde53663dc90581078d4e5824032466d2166bdadf27d21683c99637d3a3f835",
		"d1cd2a455a279c293773ef2887bfa2c1cfdfd6c587cbc66d5213e95e3aae2e96",
	},
	"empty": {
		"c82685296a2d914c9acd6f6f6db1d1ad364f502b26af5e6ca8874c09880d5cf9",
		"d3dda84eb03b9738d118eb2be78e246106900493c0ae07819ad60815134a8058",
	},
	"highcomp": {
		"72bc15093b2f89b38a96b8d4acc11fb146b64e7ca30e3518a31da138f0e86e38",
		"4a9640ef510f7117ee0abaa4a90eb03830695226d707b8b4a503edd109ea7476",
	},
	"kernel": {
		"ccbac004ae3349511d110bed895783d54ab8d52bc341590ec9a06a6e22c9018f",
		"5972a827f92e971f9a67d4fc3051b8c0cd834771a9d408343707f9f2f93f4257",
	},
	"multi_block": {
		"ca6df48bd3fc2301e80d61de2385a6f1aedec04d44f59ccaf15fe77efe975d92",
		"663daf2e6823a6300a78b24471d1e913e179fa72cd11210e6817441d6e55bba2",
	},
	"one": {
		"29475c925617da7dda015881da5b6865b1c9a89ac805cafca2b41c421f048a39",
		"df3a0811c67bba3d239af248baec4f4695a134a0829ddab794099f57cf5df877",
	},
	"period20": {
		"fdc07ccaabe7cace1768510d2d7cb1f597a07c571ff2c8dc18783bb89e8c4f8f",
		"ea2c7f5580f2ed267846ada885ce62b2cd6991046539e3024b32d65c142383ff",
	},
	"random": {
		"624f3623f47202df8ba231a71496c5f615afbf04f704bd26a81cd6e5b303111d",
		"efa5e79e90722baea62f99289fe850931499ce3bb777c66d8273f6392a09c91f",
	},
	"run_break": {
		"5cb63ff76fa07369d7e7668c308a1a808c2fb9d9435b13e700b2fce95a25bdef",
		"40026b32bcb86dce4effe3915ff13dd759067ab7d25960280bfc810791aaa588",
	},
	"runs": {
		"4b76a0d689fa37af0a918606440eecd04128db5cfb4183c5f2c68d290ce873b6",
		"167fa8c06b93b4a6233e9c82527fa161b641840a838cc81f62387ab7a4d58bec",
	},
	"short": {
		"2b91022d2322e35985137ef22ec7bc7ece8a40d3f5366198aa2d167de7eb6be6",
		"3660bd4747f5acf3ce8e198440cdb34d5921890e7805cb86fbb43bcd6b1a7b5d",
	},
	"text": {
		"09cacbe66b2c66fdbdb1077db966d6c75b4e2c6f2d0a47b668d663fe1f7ad03b",
		"9d0eeef8e7b8f72ba438ea9f206d5261243ac395543fed6901923893bbcdb807",
	},
	"zeros": {
		"fb8463715153f1de9fb72ddc6dc7620d9b7e3afb765ef2633257bfc6ea127364",
		"d9278bcb7a61333d31ebaa7550354761de3f152f7e91ea2623b1eabf1760a36f",
	},
}

// goldenBZ2Inputs are the stdlib cases, the multi-block input and the
// five paper datasets at 128 KiB, two blocks each at level 1.
func goldenBZ2Inputs() map[string][]byte {
	in := stdlibCases()
	in["multi_block"] = multiBlockInput()
	for i, g := range datasets.All() {
		in[g.Key] = g.Gen(128<<10, int64(21+i))
	}
	return in
}

func TestGoldenBZ2Bytes(t *testing.T) {
	inputs := goldenBZ2Inputs()
	if len(inputs) != len(goldenBZ2) {
		t.Fatalf("%d inputs, %d golden entries", len(inputs), len(goldenBZ2))
	}
	for name, data := range inputs {
		t.Run(name, func(t *testing.T) {
			for i, level := range []int{1, 9} {
				var buf bytes.Buffer
				if err := EncodeBZ2(&buf, data, level); err != nil {
					t.Fatalf("level %d: %v", level, err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got, want := hex.EncodeToString(sum[:]), goldenBZ2[name][i]; got != want {
					t.Errorf("level %d: sha256 %s, golden %s", level, got, want)
				}
			}
		})
	}
}
