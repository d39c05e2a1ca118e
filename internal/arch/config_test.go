package arch

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

const sampleConfig = `
# test chip
chip 9 9
cycle 10ms
sensor sensor1 2 2 1 1
heater heater1 6 2 1 1
input in1 west 0 2 PCRMix
input in2 west 0 6
output out1 east 8 4
`

func TestParseConfig(t *testing.T) {
	c, err := ParseConfig(strings.NewReader(sampleConfig))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if c.Cols != 9 || c.Rows != 9 {
		t.Errorf("dims = %dx%d, want 9x9", c.Cols, c.Rows)
	}
	if c.CyclePeriod != 10*time.Millisecond {
		t.Errorf("cycle = %v, want 10ms", c.CyclePeriod)
	}
	if len(c.Devices) != 2 || len(c.Ports) != 3 {
		t.Fatalf("got %d devices, %d ports", len(c.Devices), len(c.Ports))
	}
	if p, _ := c.Port("in1"); p.Fluid != "PCRMix" {
		t.Errorf("in1 fluid = %q, want PCRMix", p.Fluid)
	}
}

func TestConfigRoundTrip(t *testing.T) {
	orig := Default()
	var buf bytes.Buffer
	if err := WriteConfig(&buf, orig); err != nil {
		t.Fatalf("WriteConfig: %v", err)
	}
	parsed, err := ParseConfig(&buf)
	if err != nil {
		t.Fatalf("ParseConfig of written config: %v", err)
	}
	if !reflect.DeepEqual(orig, parsed) {
		t.Errorf("round trip mismatch:\norig:   %+v\nparsed: %+v", orig, parsed)
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []struct {
		name, cfg string
	}{
		{"bad directive", "chip 9 9\ncycle 1ms\nfrobnicate 1 2"},
		{"bad int", "chip nine 9"},
		{"bad side", "chip 9 9\ncycle 1ms\ninput a middle 0 0"},
		{"bad duration", "chip 9 9\ncycle fast"},
		{"output with fluid", "chip 9 9\ncycle 1ms\noutput o east 8 0 Water"},
		{"short sensor", "chip 9 9\ncycle 1ms\nsensor s 1 1"},
		{"invalid chip", "chip 0 0\ncycle 1ms"},
		{"device off chip", "chip 4 4\ncycle 1ms\nsensor s 9 9 1 1"},
		{"device without cells", "chip 10 1\ncycle 1ms\nheater h 0 0 0 0"},
		{"device of negative width", "chip 9 9\ncycle 1ms\nsensor s 3 3 -2 1"},
		// 1 + (2^63-1) wraps to a negative right edge.
		{"overflowing device", "chip 9 9\ncycle 1ms\nsensor s 1 1 9223372036854775807 1"},
		{"one electrode too many", "chip 257 256\ncycle 1ms"},
		{"huge chip", "chip 4000 4000\ncycle 1ms\noutput o east 3999 2"},
		// 2^62 x 4 electrodes wrap to 0 in a 64-bit product.
		{"overflowing area", "chip 4611686018427387904 4\ncycle 1ms"},
	}
	for _, c := range cases {
		if _, err := ParseConfig(strings.NewReader(c.cfg)); err == nil {
			t.Errorf("%s: ParseConfig accepted bad config", c.name)
		}
	}
}

// The largest chip Validate accepts has MaxElectrodes electrodes, in any
// shape.
func TestParseConfigAcceptsMaxArea(t *testing.T) {
	for _, cfg := range []string{"chip 256 256\ncycle 1ms", "chip 65536 1\ncycle 1ms", "chip 1 65536\ncycle 1ms"} {
		if _, err := ParseConfig(strings.NewReader(cfg)); err != nil {
			t.Errorf("%q: %v", cfg, err)
		}
	}
}

func TestParseConfigIgnoresCommentsAndBlanks(t *testing.T) {
	cfg := "\n\n# hi\nchip 5 5 # trailing comment\ncycle 1ms\n\n"
	c, err := ParseConfig(strings.NewReader(cfg))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if c.Cols != 5 {
		t.Errorf("cols = %d, want 5", c.Cols)
	}
}
