package mem

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseSize parses a byte count with an optional K/M/G suffix (binary
// multiples), e.g. "64M": the syntax of the memory-size command-line flags.
// A negative count, or one whose byte value overflows int64, is an error.
func ParseSize(s string) (int64, error) {
	num, mult := s, int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		num, mult = s[:len(s)-1], 1<<10
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		num, mult = s[:len(s)-1], 1<<20
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		num, mult = s[:len(s)-1], 1<<30
	}
	n, err := strconv.ParseInt(strings.TrimSpace(num), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid size %q (use e.g. 512K, 64M, 1G)", s)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("size %q overflows a 64-bit byte count", s)
	}
	return n * mult, nil
}
