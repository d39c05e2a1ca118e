package main

// The machine-readable output mode shared by plain verification and the
// analyze subcommand: one JSON array with an object per verified target, so
// CI can annotate findings without scraping the text format.

import (
	"encoding/json"
	"fmt"
	"io"

	"biocoder/internal/analysis"
	"biocoder/internal/pinsafe"
	"biocoder/internal/verify"
)

type jsonDiag struct {
	Code     string  `json:"code"`
	Severity string  `json:"severity"`
	Scope    string  `json:"scope,omitempty"`
	Instr    *int    `json:"instr,omitempty"`
	Cycle    *int    `json:"cycle,omitempty"`
	Cell     *[2]int `json:"cell,omitempty"`
	Message  string  `json:"message"`
}

type jsonLoop struct {
	Header  string `json:"header"`
	Lower   int    `json:"lower"`
	Upper   int    `json:"upper"`
	Exact   bool   `json:"exact,omitempty"`
	Assumed bool   `json:"assumed,omitempty"`
}

type jsonTiming struct {
	BestCycles  int        `json:"bestCycles"`
	WorstCycles int        `json:"worstCycles"`
	Best        string     `json:"best"`
	Worst       string     `json:"worst"`
	Unbounded   bool       `json:"unbounded,omitempty"`
	Loops       []jsonLoop `json:"loops,omitempty"`
}

type jsonOutput struct {
	Port          string            `json:"port"`
	Volume        string            `json:"volume"`
	Concentration map[string]string `json:"concentration,omitempty"`
}

type jsonWash struct {
	After      string `json:"after"`
	Cells      int    `json:"cells"`
	TourCycles int    `json:"tourCycles,omitempty"`
}

// jsonPins summarizes a pin-safety analysis: how many electrodes the assay
// actuates, how constrained they are, and how many pins suffice.
type jsonPins struct {
	Electrodes        int  `json:"electrodes"`
	InterferenceEdges int  `json:"interferenceEdges"`
	MinPins           int  `json:"minPins"`
	MapPins           int  `json:"mapPins"`
	Derived           bool `json:"derived"`
}

// jsonBlockSummary is one block's effect summary under the deps subcommand.
type jsonBlockSummary struct {
	Block          int      `json:"block"`
	Label          string   `json:"label"`
	TransferIn     []string `json:"transferIn,omitempty"`
	TransferOut    []string `json:"transferOut,omitempty"`
	SensorReads    []string `json:"sensorReads,omitempty"`
	ReservoirIn    []string `json:"reservoirIn,omitempty"`
	ReservoirOut   []string `json:"reservoirOut,omitempty"`
	FootprintCells int      `json:"footprintCells"`
	Fingerprint    string   `json:"fingerprint"`
}

// jsonDepEdge is one droplet-carrying CFG edge in the block dependency graph.
type jsonDepEdge struct {
	From      int      `json:"from"`
	To        int      `json:"to"`
	FromLabel string   `json:"fromLabel"`
	ToLabel   string   `json:"toLabel"`
	Droplets  []string `json:"droplets,omitempty"`
}

// jsonTarget is one verified or analyzed program in the JSON report.
type jsonTarget struct {
	Name        string             `json:"name"`
	Error       string             `json:"error,omitempty"`
	Diags       []jsonDiag         `json:"diagnostics"`
	Timing      *jsonTiming        `json:"timing,omitempty"`
	Outputs     []jsonOutput       `json:"outputs,omitempty"`
	Hazards     int                `json:"hazards,omitempty"`
	Suggestions []jsonWash         `json:"washSuggestions,omitempty"`
	Pins        *jsonPins          `json:"pins,omitempty"`
	Blocks      []jsonBlockSummary `json:"blocks,omitempty"`
	DepEdges    []jsonDepEdge      `json:"deps,omitempty"`
}

func diagJSON(d verify.Diag) jsonDiag {
	out := jsonDiag{
		Code:     d.Code,
		Severity: d.Sev.String(),
		Scope:    d.Pos.Scope,
		Message:  d.Msg,
	}
	if d.Pos.InstrID >= 0 {
		id := d.Pos.InstrID
		out.Instr = &id
	}
	if d.Pos.Cycle >= 0 {
		c := d.Pos.Cycle
		out.Cycle = &c
	}
	if d.Pos.HasCell {
		cell := [2]int{d.Pos.Cell.X, d.Pos.Cell.Y}
		out.Cell = &cell
	}
	return out
}

func diagsJSON(rep *verify.Report) []jsonDiag {
	out := make([]jsonDiag, 0, len(rep.Diags))
	for _, d := range rep.Diags {
		out = append(out, diagJSON(d))
	}
	return out
}

// passTimes writes the wall-clock cost of each pass of a report to w, one
// line per pass. It stays out of the JSON document, so two runs over the
// same input print the same document.
func passTimes(w io.Writer, name string, rep *verify.Report) {
	for _, pt := range rep.PassTimes {
		fmt.Fprintf(w, "bfvet: %s: pass %s took %dµs\n", name, pt.Name, pt.Duration.Microseconds())
	}
}

// pinsJSON folds a pin-safety result into a target record.
func pinsJSON(t *jsonTarget, res *pinsafe.Result, rep *verify.Report) {
	t.Diags = diagsJSON(rep)
	t.Pins = &jsonPins{
		Electrodes:        res.Electrodes,
		InterferenceEdges: len(res.Conflicts),
		MinPins:           res.MinPins,
		MapPins:           res.Map.NumPins(),
		Derived:           res.Derived,
	}
}

// analysisJSON folds an analysis result into a target record.
func analysisJSON(t *jsonTarget, res *analysis.Result) {
	t.Diags = diagsJSON(res.Report)
	if res.Timing != nil {
		jt := &jsonTiming{
			BestCycles:  res.Timing.BestCycles,
			WorstCycles: res.Timing.WorstCycles,
			Best:        res.Timing.Best.String(),
			Worst:       res.Timing.Worst.String(),
			Unbounded:   res.Timing.Unbounded,
		}
		for _, l := range res.Timing.Loops {
			jt.Loops = append(jt.Loops, jsonLoop{
				Header: l.Header, Lower: l.Lower, Upper: l.Upper,
				Exact: l.Exact, Assumed: l.Assumed,
			})
		}
		t.Timing = jt
	}
	for _, o := range res.Outputs {
		jo := jsonOutput{Port: o.Port, Volume: o.Vol.String()}
		if len(o.Conc) > 0 {
			jo.Concentration = map[string]string{}
			for r, iv := range o.Conc {
				jo.Concentration[r] = iv.String()
			}
		}
		t.Outputs = append(t.Outputs, jo)
	}
	t.Hazards = len(res.Hazards)
	for _, s := range res.Suggestions {
		t.Suggestions = append(t.Suggestions, jsonWash{
			After: s.After, Cells: len(s.Cells), TourCycles: s.TourCycles,
		})
	}
}

func writeJSON(w io.Writer, targets []jsonTarget) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(targets)
}
