package arch

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// FuzzChipConfig feeds chip configurations, an untrusted input of bfc
// -chip, bfd's chip field and the [chip] section of saved executables, to
// ParseConfig, which allocates by the text, not by the area it declares.
// An accepted chip has at most MaxElectrodes electrodes and every device
// on the array, and survives WriteConfig and ParseConfig unchanged.
func FuzzChipConfig(f *testing.F) {
	for _, c := range []*Chip{Default(), Large()} {
		var buf bytes.Buffer
		if err := WriteConfig(&buf, c); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add(sampleConfig)
	for _, cfg := range []string{
		"chip 9 9\ncycle 1ms\nfrobnicate 1 2",
		"chip 9 9\ncycle 1ms\ninput a middle 0 0",
		"chip 4 4\ncycle 1ms\nsensor s 9 9 1 1",
		"chip 257 256\ncycle 1ms",
		"chip 256 256\ncycle 1ms",
		"chip 65536 1\ncycle 1ms",
		"chip 4000 4000\ncycle 1ms\noutput o east 3999 2",
		"chip 4611686018427387904 4\ncycle 1ms",
	} {
		f.Add(cfg)
	}
	f.Fuzz(func(t *testing.T, text string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := ParseConfig(strings.NewReader(text))
		runtime.ReadMemStats(&after)
		// Parsing allocates by the text, never by the area it declares.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16+256*uint64(len(text)) {
			t.Fatalf("parsing %d bytes allocated %d", len(text), grew)
		}
		if err != nil {
			return
		}
		if c.Cols*c.Rows > MaxElectrodes {
			t.Fatalf("accepted a %dx%d chip, more than %d electrodes", c.Cols, c.Rows, MaxElectrodes)
		}
		for _, d := range c.Devices {
			r := d.Loc
			if r.W < 1 || r.H < 1 || !c.InBounds(Point{r.X, r.Y}) || !c.InBounds(Point{r.X + r.W - 1, r.Y + r.H - 1}) {
				t.Fatalf("accepted device %q at %+v, not a rectangle of the %dx%d array", d.Name, r, c.Cols, c.Rows)
			}
		}
		var buf bytes.Buffer
		if err := WriteConfig(&buf, c); err != nil {
			t.Fatal(err)
		}
		again, err := ParseConfig(&buf)
		if err != nil {
			t.Fatalf("written config does not parse: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("round trip changed the chip:\n%+v\n%+v", c, again)
		}
	})
}
