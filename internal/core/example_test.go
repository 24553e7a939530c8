package core_test

import (
	"bytes"
	"fmt"
	"strings"

	"culzss/internal/core"
)

// The paper's Figure 2 flow: initialise, compress a memory buffer,
// decompress it back.
func ExampleCompress() {
	payload := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 200))

	container, _, err := core.Compress(payload, "v1", core.Params{})
	if err != nil {
		panic(err)
	}
	restored, err := core.Decompress(container, core.Params{})
	if err != nil {
		panic(err)
	}
	fmt.Println("round trip ok:", bytes.Equal(restored, payload))
	fmt.Println("compressed smaller:", len(container) < len(payload))
	// Output:
	// round trip ok: true
	// compressed smaller: true
}

// The streaming adapters wrap the buffer API for io pipelines.
func ExampleNewWriter() {
	var network bytes.Buffer

	w := core.NewWriter(&network, core.Params{})
	fmt.Fprint(w, strings.Repeat("sensor reading 42.0; ", 500))
	if err := w.Close(); err != nil {
		panic(err)
	}

	r, err := core.NewReader(&network, core.Params{})
	if err != nil {
		panic(err)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(r); err != nil {
		panic(err)
	}
	fmt.Println("delivered bytes:", out.Len())
	// Output:
	// delivered bytes: 10500
}
