package experiments

import (
	"fmt"
	"io"
	"slices"

	"fasttrack/internal/core"
	"fasttrack/internal/fpga"
)

// LiteratureRouter is a published router datapoint quoted by the paper's
// Table I / Fig 1 for NoCs we do not re-implement in RTL. Reproduced here
// as reference constants so the regenerated table carries the same
// comparison rows.
type LiteratureRouter struct {
	Name     string
	Device   string
	LUTs     int
	FFs      int
	PeriodNS float64
	// PortsPerCycle is the peak packets per cycle a switch can move, used
	// for the Fig 1 bandwidth axis.
	PortsPerCycle float64
}

// literatureRouters are the non-Hoplite rows of Table I.
var literatureRouters = []LiteratureRouter{
	{Name: "OpenSMART 4VC 1-deep", Device: "Virtex-7 VX690T", LUTs: 3700, FFs: 1700, PeriodNS: 5, PortsPerCycle: 4},
	{Name: "BLESS (no buffers)", Device: "Virtex-2 Pro", LUTs: 1090, FFs: 335, PeriodNS: 13.2, PortsPerCycle: 4},
	{Name: "CONNECT 2VC 16-deep", Device: "Virtex-6 LX240T", LUTs: 1562, FFs: 635, PeriodNS: 9.6, PortsPerCycle: 4},
	{Name: "Split-Merge DOR", Device: "Virtex-6 LX240T", LUTs: 1785, FFs: 541, PeriodNS: 4.5, PortsPerCycle: 2},
	{Name: "Altera Qsys", Device: "Stratix IV C2", LUTs: 1673, FFs: 0, PeriodNS: 3.1, PortsPerCycle: 2},
}

// Table1Row is one row of the regenerated Table I.
type Table1Row struct {
	Name     string
	Device   string
	LUTs     int
	FFs      int
	PeriodNS float64
	Modeled  bool // produced by this repo's cost model vs quoted
}

// Table1 regenerates Table I: literature rows plus our modeled Hoplite and
// FastTrack rows at 32-bit width on the Virtex-7 485T.
var Table1 = &Figure[Table1Row]{
	ID: "table1", Title: "FPGA implementations of 32b NoC routers",
	Heading: "FPGA implementations of 32b NoC routers",
	Data: func(Scale) ([]Table1Row, error) {
		dev := fpga.Virtex7_485T()
		var rows []Table1Row
		for _, lr := range literatureRouters {
			rows = append(rows, Table1Row{Name: lr.Name, Device: lr.Device,
				LUTs: lr.LUTs, FFs: lr.FFs, PeriodNS: lr.PeriodNS})
		}
		hop := fpga.HopliteSpec(8, 32, 1)
		hl, hf := hop.Resources()
		n := 8 * 8
		rows = append(rows, Table1Row{
			Name: "Hoplite (modeled)", Device: dev.Name,
			LUTs: hl / n, FFs: hf / n,
			PeriodNS: 1000 / hop.ClockMHz(dev), Modeled: true,
		})
		for _, v := range []core.Variant{core.VariantInject, core.VariantFull} {
			ft, err := fpga.FastTrackSpec(8, 2, 1, 32, v)
			if err != nil {
				return nil, err
			}
			fl, ff := ft.Resources()
			rows = append(rows, Table1Row{
				Name: fmt.Sprintf("FastTrack %v (modeled)", v), Device: dev.Name,
				LUTs: fl / n, FFs: ff / n,
				PeriodNS: 1000 / ft.ClockMHz(dev), Modeled: true,
			})
		}
		return rows, nil
	},
	Columns: []string{"Router", "Device", "LUTs", "FFs", "Period(ns)", "Source"},
	Row: func(r Table1Row) []any {
		src := "paper (quoted)"
		if r.Modeled {
			src = "this repo"
		}
		return []any{r.Name, r.Device, r.LUTs, r.FFs, fmt.Sprintf("%.1f", r.PeriodNS), src}
	},
}

// Fig1Point is one scatter point of Fig 1: switch cost vs peak bandwidth.
type Fig1Point struct {
	Name string
	// Cost is max(LUTs, FFs) per switch.
	Cost int
	// BandwidthPktNS is peak switch bandwidth in packets/ns.
	BandwidthPktNS float64
}

// Fig1 regenerates the Fig 1 scatter.
var Fig1 = &Figure[Fig1Point]{
	ID: "fig1", Title: "Area-bandwidth tradeoffs of FPGA NoCs",
	Heading: "Area-bandwidth tradeoffs in implementing NoCs on FPGAs",
	Data: func(Scale) ([]Fig1Point, error) {
		dev := fpga.Virtex7_485T()
		var pts []Fig1Point
		for _, lr := range literatureRouters {
			pts = append(pts, Fig1Point{Name: lr.Name, Cost: max(lr.LUTs, lr.FFs),
				BandwidthPktNS: lr.PortsPerCycle / lr.PeriodNS})
		}
		hop := fpga.HopliteSpec(8, 32, 1)
		hl, hf := hop.Resources()
		pts = append(pts, Fig1Point{Name: "Hoplite", Cost: max(hl, hf) / 64,
			BandwidthPktNS: hop.PeakBandwidth(dev)})
		ft, err := fpga.FastTrackSpec(8, 2, 1, 32, core.VariantFull)
		if err != nil {
			return nil, err
		}
		fl, ff := ft.Resources()
		pts = append(pts, Fig1Point{Name: "FastTrack", Cost: max(fl, ff) / 64,
			BandwidthPktNS: ft.PeakBandwidth(dev)})
		return pts, nil
	},
	Columns: []string{"NoC", "CostPerSwitch max(LUTs,FFs)", "PeakBW (pkt/ns)"},
	Row:     func(p Fig1Point) []any { return []any{p.Name, p.Cost, fmt.Sprintf("%.2f", p.BandwidthPktNS)} },
}

// WirePoint is one (distance, hops) sample of the §III characterization.
type WirePoint struct {
	Distance, Hops int
	MHz            float64
}

// wireFigure is a §III wire experiment: the clock mhz(distance, hops) allows
// over 0-8 hops and distances 1-256, rendered as a hops × distance pivot.
func wireFigure(id, title, heading string, mhz func(dev *fpga.Device, distance, hops int) float64) *Figure[WirePoint] {
	return &Figure[WirePoint]{
		ID: id, Title: title, Heading: heading,
		Data: func(Scale) ([]WirePoint, error) {
			dev := fpga.Virtex7_485T()
			var pts []WirePoint
			for h := 0; h <= 8; h++ {
				for d := 1; d <= 256; d *= 2 {
					pts = append(pts, WirePoint{Distance: d, Hops: h, MHz: mhz(dev, d, h)})
				}
			}
			return pts, nil
		},
		Render: func(w io.Writer, _ Scale, pts []WirePoint) error {
			t := newTable(w, "Hops\\Dist", "1", "2", "4", "8", "16", "32", "64", "128", "256")
			for len(pts) > 0 {
				h := pts[0].Hops
				cells := []any{h}
				for len(pts) > 0 && pts[0].Hops == h {
					cells = append(cells, fmt.Sprintf("%.0f", pts[0].MHz))
					pts = pts[1:]
				}
				t.row(cells...)
			}
			return t.flush()
		},
	}
}

// Fig4 sweeps the virtual-express experiment (frequency in MHz per distance
// column) and Fig6 the physical-express one.
var (
	Fig4 = wireFigure("fig4", "Virtual express links: frequency vs distance and LUT hops",
		"Virtual express links: registered wire with N LUT hops", (*fpga.Device).VirtualExpressMHz)
	Fig6 = wireFigure("fig6", "Physical express links: frequency vs distance and bypassed hops",
		"Physical express links: bypass wire over N LUT-FF stages", (*fpga.Device).PhysicalExpressMHz)
)

// Table2Row is one configuration row of Table II.
type Table2Row struct {
	Config     string
	LUTs, FFs  int
	MHz, Watts float64
}

// Table2 regenerates Table II (8×8, 256-bit, Virtex-7 485T), each row with
// its ratios against baseline Hoplite, the first.
var Table2 = &Figure[Table2Row]{
	ID: "table2", Title: "Resource usage and frequency of an 8x8 256b NoC",
	Heading: "Resource usage and frequency of an 8x8 NoC (256b) on Virtex-7 485T",
	Data: func(Scale) ([]Table2Row, error) {
		dev := fpga.Virtex7_485T()
		specs := []fpga.NoCSpec{fpga.HopliteSpec(8, 256, 1)}
		for _, r := range []int{1, 2} {
			s, err := fpga.FastTrackSpec(8, 2, r, 256, core.VariantFull)
			if err != nil {
				return nil, err
			}
			specs = append(specs, s)
		}
		var rows []Table2Row
		for _, s := range specs {
			l, f := s.Resources()
			rows = append(rows, Table2Row{Config: s.Name, LUTs: l, FFs: f,
				MHz: s.ClockMHz(dev), Watts: s.PowerW(dev)})
		}
		return rows, nil
	},
	Render: func(w io.Writer, _ Scale, rows []Table2Row) error {
		base := rows[0]
		t := newTable(w, "Config", "LUTs", "FFs", "MHz", "Power(W)")
		for _, r := range rows {
			t.row(r.Config,
				fmt.Sprintf("%dK (%.1fx)", r.LUTs/1000, float64(r.LUTs)/float64(base.LUTs)),
				fmt.Sprintf("%dK (%.1fx)", r.FFs/1000, float64(r.FFs)/float64(base.FFs)),
				fmt.Sprintf("%.0f (%.2fx)", r.MHz, r.MHz/base.MHz),
				fmt.Sprintf("%.1f (%.1fx)", r.Watts, r.Watts/base.Watts))
		}
		return t.flush()
	},
}

// Fig10Cell is one grid cell of the routability study.
type Fig10Cell struct {
	Config    string
	WidthBits int
	MHz       float64 // 0 = NA (does not fit)
}

// fig10Widths lists the datawidth rows of the grid.
var fig10Widths = []int{8, 16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024}

// Fig10 evaluates peak frequency (or NA: did not fit the device) per
// (config, width) cell and renders it as a width × config grid.
var Fig10 = &Figure[Fig10Cell]{
	ID: "fig10", Title: "Peak frequency of FastTrack NoCs of varying datawidths",
	Heading: "Peak frequency (MHz) of NoCs of varying datawidths on Virtex-7 485T",
	Data: func(Scale) ([]Fig10Cell, error) {
		dev := fpga.Virtex7_485T()
		var cells []Fig10Cell
		for _, n := range []int{4, 8, 16} {
			specs := []fpga.NoCSpec{fpga.HopliteSpec(n, 0, 1)}
			for _, r := range []int{1, 2} {
				s, err := fpga.FastTrackSpec(n, 2, r, 0, core.VariantFull)
				if err != nil {
					return nil, err
				}
				s.Name = fmt.Sprintf("%s@%dx%d", s.Name, n, n)
				specs = append(specs, s)
			}
			for _, spec := range specs {
				for _, wbits := range fig10Widths {
					s := spec
					s.WidthBits = wbits
					mhz := 0.0
					if s.Routable(dev) {
						mhz = s.ClockMHz(dev)
					}
					cells = append(cells, Fig10Cell{Config: s.Name, WidthBits: wbits, MHz: mhz})
				}
			}
		}
		return cells, nil
	},
	Render: func(w io.Writer, _ Scale, cells []Fig10Cell) error {
		// cells run config-major, len(fig10Widths) per config. A column is
		// a config name's first run: the three Hoplite specs share the
		// name "Hoplite", so only the 4x4 one is shown.
		headers := []string{"Width\\Config"}
		var cols []int
		for c := 0; c < len(cells); c += len(fig10Widths) {
			if !slices.Contains(headers, cells[c].Config) {
				headers = append(headers, cells[c].Config)
				cols = append(cols, c)
			}
		}
		t := newTable(w, headers...)
		for i, wbits := range fig10Widths {
			row := []any{wbits}
			for _, c := range cols {
				if mhz := cells[c+i].MHz; mhz == 0 {
					row = append(row, "NA")
				} else {
					row = append(row, fmt.Sprintf("%.0f", mhz))
				}
			}
			t.row(row...)
		}
		return t.flush()
	},
}
