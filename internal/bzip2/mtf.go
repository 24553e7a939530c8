package bzip2

// Move-to-front coding (paper ref [3]'s pipeline stage): after the BWT
// clusters identical bytes, MTF turns locality into a stream dominated by
// small values — mostly zeros — which the zero-run coder then crushes.

// byteValues is the container's MTF alphabet: every byte value,
// ascending. The .bz2 format's alphabet is the block's used bytes.
var byteValues = func() (b [256]byte) {
	for i := range b {
		b[i] = byte(i)
	}
	return b
}()

// mtfEncode transforms data into MTF indices over alphabet, which must
// hold every byte of data.
func mtfEncode(data, alphabet []byte) []byte {
	var list [256]byte
	copy(list[:], alphabet)
	out := make([]byte, len(data))
	for i, c := range data {
		var j int
		for j = 0; list[j] != c; j++ {
		}
		out[i] = byte(j)
		copy(list[1:j+1], list[:j])
		list[0] = c
	}
	return out
}

// mtfDecode inverts mtfEncode over byteValues.
func mtfDecode(idx []byte) []byte {
	list := byteValues
	out := make([]byte, len(idx))
	for i, j := range idx {
		c := list[j]
		out[i] = c
		copy(list[1:int(j)+1], list[:j])
		list[0] = c
	}
	return out
}
