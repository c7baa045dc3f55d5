package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
	"time"
)

// Exhibit is one table or figure: a grid of cells and what to read off them.
type Exhibit struct {
	Name string
	Desc string
	// Paper is what the paper reports for it.
	Paper string
	// Labels heads the label columns; every row carries one label per entry.
	Labels []string
	// Grid lays the exhibit's rows out for a configuration.
	Grid      func(Config) []Row
	Columns   []Column
	Headlines []Headline
	// Phases prints every row's per-step stall accounting under the table.
	Phases bool
}

// Row is one line of an exhibit: its labels, the cells it compares (one for
// most; value separation off and on for blob) and, once Run has been over
// it, their measurements. A row without cells is another view of the row
// above and shares its cells and measurements (Table I's four modules).
type Row struct {
	Labels []string
	Cells  []Cell
	M      []Measurement
	view   bool // shares the row above's cells and measurements
}

// Column is one measured quantity of a row.
type Column struct {
	Name string
	// Format is the fmt verb the value prints with; empty marks a latency in
	// nanoseconds, printed as a time.Duration.
	Format string
	Value  func(Row) float64
}

func (c Column) format(v float64) string {
	if c.Format == "" {
		return time.Duration(v).String()
	}
	return fmt.Sprintf(c.Format, v)
}

// Headline is a named reduction over an exhibit's rows — the number the
// paper's exhibit is quoted for. Name doubles as the unit string the
// repository benchmark reports it under.
type Headline struct {
	Name  string
	Value func([]Row) float64
	// AtLeast is the exhibit's budget (0 = none): a run with device latency
	// on fails when the value is below it. A budget under the recorded value
	// leaves headroom for loaded-host noise while still catching a
	// regression that inverts the mechanism.
	AtLeast float64
}

// Table is a measured exhibit.
type Table struct {
	Exhibit
	Config Config
	Rows   []Row
}

// Run measures every cell of the exhibit's grid.
func Run(e Exhibit, cfg Config) (Table, error) {
	t := Table{Exhibit: e, Config: cfg, Rows: e.Grid(cfg)}
	for i := range t.Rows {
		r := &t.Rows[i]
		if len(r.Cells) == 0 {
			r.Cells, r.M, r.view = t.Rows[i-1].Cells, t.Rows[i-1].M, true
		}
		for _, c := range r.Cells[len(r.M):] {
			m, err := Measure(c)
			if err != nil {
				return t, fmt.Errorf("%s %s: %w", e.Name, strings.Join(r.Labels, "/"), err)
			}
			r.M = append(r.M, m)
		}
	}
	return t, nil
}

// Reading is one headline of a measured exhibit.
type Reading struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Budget string  `json:"budget,omitempty"`
	// Verdict is "ok" or "breached" for a budgeted headline, and "not
	// evaluated" when the run had no device latency: every write is free
	// there, the mechanisms under budget have nothing to act on and the
	// comparison is noise.
	Verdict string `json:"verdict,omitempty"`
}

// Breached reports whether the reading is outside its budget.
func (r Reading) Breached() bool { return r.Verdict == "breached" }

// Readings evaluates the exhibit's headlines over the measured rows.
func (t Table) Readings() []Reading {
	var out []Reading
	for _, h := range t.Headlines {
		r := Reading{Name: h.Name, Value: h.Value(t.Rows)}
		if h.AtLeast != 0 {
			r.Budget, r.Verdict = fmt.Sprintf(">= %g", h.AtLeast), "ok"
			if r.Value < h.AtLeast {
				r.Verdict = "breached"
			}
		}
		if r.Budget != "" && t.Config.Device.Scale <= 0 {
			r.Verdict = "not evaluated"
		}
		out = append(out, r)
	}
	return out
}

// Print renders the table, the Fig 1 series and phases of the rows that have
// them, the headlines and the paper's figure.
func (t Table) Print(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	head := append([]string(nil), t.Labels...)
	for _, c := range t.Columns {
		head = append(head, c.Name)
	}
	fmt.Fprintln(tw, strings.Join(head, "\t"))
	for _, r := range t.Rows {
		line := append([]string(nil), r.Labels...)
		for _, c := range t.Columns {
			line = append(line, c.format(c.Value(r)))
		}
		fmt.Fprintln(tw, strings.Join(line, "\t"))
	}
	tw.Flush()
	for _, r := range t.Rows {
		if r.view {
			continue // the row above has printed these measurements
		}
		for k, m := range r.M {
			for j, v := range m.Timeline {
				fmt.Fprintf(w, "t=%v\tmean=%v\n", time.Duration(j)*r.Cells[k].Timeline, v)
			}
			for _, p := range m.Phases {
				if !t.Phases {
					break
				}
				fmt.Fprintf(w, "%s phase %-13s %d ops in %v: stall %v (%d slowdowns, %d stops)\n",
					strings.Join(r.Labels, "/"), p.Name, p.Ops, p.Duration.Round(time.Millisecond),
					p.Stall.Round(time.Microsecond), p.Slowdowns, p.Stops)
			}
		}
	}
	for _, h := range t.Readings() {
		fmt.Fprintf(w, "%s: %.2f", h.Name, h.Value)
		if h.Budget != "" {
			fmt.Fprintf(w, " (budget %s: %s)", h.Budget, h.Verdict)
		}
		fmt.Fprintln(w)
	}
	if t.Paper != "" {
		fmt.Fprintf(w, "paper: %s\n", t.Paper)
	}
}

// WriteJSON records the tables — every cell as printed, every headline —
// under the host they were measured on and the configuration they share.
func WriteJSON(path string, cfg Config, tables []Table) error {
	type row struct {
		Labels []string  `json:"labels"`
		Values []float64 `json:"values"` // one per column, in order
	}
	type exhibit struct {
		Name      string    `json:"name"`
		Desc      string    `json:"desc"`
		Paper     string    `json:"paper,omitempty"`
		Labels    []string  `json:"labels"`
		Columns   []string  `json:"columns"`
		Rows      []row     `json:"rows"`
		Headlines []Reading `json:"headlines"`
	}
	var out struct {
		Host struct {
			CPUs       int    `json:"cpus"`
			GOMAXPROCS int    `json:"gomaxprocs"`
			GoVersion  string `json:"go_version"`
			Commit     string `json:"commit"`
			Config     Config `json:"config"`
		} `json:"host"`
		Exhibits []exhibit `json:"exhibits"`
	}
	out.Host.CPUs, out.Host.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	out.Host.GoVersion, out.Host.Commit, out.Host.Config = runtime.Version(), commit(), cfg
	for _, t := range tables {
		e := exhibit{Name: t.Name, Desc: t.Desc, Paper: t.Paper, Labels: t.Labels, Headlines: t.Readings()}
		for _, c := range t.Columns {
			e.Columns = append(e.Columns, c.Name)
		}
		for _, r := range t.Rows {
			vals := make([]float64, len(t.Columns))
			for i, c := range t.Columns {
				vals[i] = c.Value(r)
			}
			e.Rows = append(e.Rows, row{r.Labels, vals})
		}
		out.Exhibits = append(out.Exhibits, e)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// commit reports the VCS revision stamped into the binary (go build stamps
// it, go run does not), or "unknown".
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
