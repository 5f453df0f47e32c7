package experiments

import (
	"fmt"
	"io"
	"sync"
)

// CellSink receives completed sweep cells. The engine guarantees canonical
// order — a sink observes exactly the sequence Result.Cells holds, one
// call per cell with its grid index and the grid total — regardless of the
// Parallelism setting, by re-sequencing out-of-order completions
// internally (cells are released stripe-by-stripe, once their
// (workload, condition) stripe is fully measured and normalized). A
// non-nil error aborts the sweep.
//
// CellSink generalizes Config.Progress: Progress observes *completion
// counts* as they happen (unordered), a sink observes *the cells
// themselves* in canonical order. Calls are serialized; implementations
// need no locking of their own.
type CellSink interface {
	Cell(c Cell, index, total int) error
}

// CellSinkFunc adapts a function to a CellSink.
type CellSinkFunc func(c Cell, index, total int) error

// Cell implements CellSink.
func (f CellSinkFunc) Cell(c Cell, index, total int) error { return f(c, index, total) }

// csvHeader is the header row of a temperature-less single-device grid;
// csvHeaderTemp adds the temp_c axis column after months, and
// csvHeaderFor composes the device axis column in after it (or directly
// after months on a temperature-less grid). Both CSV paths (streaming and
// buffered) pick the same schema for the same grid.
const (
	csvHeader     = "workload,pec,months,config,mean_us,mean_read_us,p99_read_us,normalized,retry_steps"
	csvHeaderTemp = "workload,pec,months,temp_c,config,mean_us,mean_read_us,p99_read_us,normalized,retry_steps"

	csvHeaderDevice     = "workload,pec,months,device,config,mean_us,mean_read_us,p99_read_us,normalized,retry_steps"
	csvHeaderTempDevice = "workload,pec,months,temp_c,device,config,mean_us,mean_read_us,p99_read_us,normalized,retry_steps"
)

// csvHeaderFor selects the header row for a grid's axis shape.
func csvHeaderFor(withTemp, withDevice bool) string {
	switch {
	case withTemp && withDevice:
		return csvHeaderTempDevice
	case withTemp:
		return csvHeaderTemp
	case withDevice:
		return csvHeaderDevice
	default:
		return csvHeader
	}
}

// writeCSVRow formats one cell exactly as Result.WriteCSV does; the
// streaming and buffered encoders share it so their output is
// byte-identical. withTemp selects the temp_c column (after months);
// withDevice selects the device column (after temp_c, or after months on
// a temperature-less grid).
func writeCSVRow(w io.Writer, c Cell, withTemp, withDevice bool) error {
	var err error
	switch {
	case withTemp && withDevice:
		_, err = fmt.Fprintf(w, "%s,%d,%g,%g,%s,%s,%.2f,%.2f,%.2f,%.4f,%.2f\n",
			c.Workload, c.Cond.PEC, c.Cond.Months, c.Cond.TempC, c.Cond.Device, c.Config,
			c.Mean, c.MeanRead, c.P99Read, c.Normalized, c.RetrySteps)
	case withTemp:
		_, err = fmt.Fprintf(w, "%s,%d,%g,%g,%s,%.2f,%.2f,%.2f,%.4f,%.2f\n",
			c.Workload, c.Cond.PEC, c.Cond.Months, c.Cond.TempC, c.Config,
			c.Mean, c.MeanRead, c.P99Read, c.Normalized, c.RetrySteps)
	case withDevice:
		_, err = fmt.Fprintf(w, "%s,%d,%g,%s,%s,%.2f,%.2f,%.2f,%.4f,%.2f\n",
			c.Workload, c.Cond.PEC, c.Cond.Months, c.Cond.Device, c.Config,
			c.Mean, c.MeanRead, c.P99Read, c.Normalized, c.RetrySteps)
	default:
		_, err = fmt.Fprintf(w, "%s,%d,%g,%s,%.2f,%.2f,%.2f,%.4f,%.2f\n",
			c.Workload, c.Cond.PEC, c.Cond.Months, c.Config,
			c.Mean, c.MeanRead, c.P99Read, c.Normalized, c.RetrySteps)
	}
	return err
}

// CSVSink streams sweep cells as CSV rows the moment the engine releases
// them, instead of materializing a Result first. For the same grid its
// output is byte-identical to Result.WriteCSV at every parallelism
// setting.
type CSVSink struct {
	w      io.Writer
	temp   bool
	device bool
}

// NewCSVSink writes the temperature-less single-device CSV header to w and
// returns a sink that appends one row per cell. For a grid that sweeps
// temperature or device, use NewCSVSinkFor, which picks the schema the
// buffered WriteCSV would.
func NewCSVSink(w io.Writer) (*CSVSink, error) {
	return newCSVSink(w, false, false)
}

// NewCSVSinkFor is NewCSVSink with the schema chosen from the sweep
// configuration: grids whose conditions carry explicit temperatures get
// the temp_c column, grids whose conditions carry explicit device presets
// get the device column (matching what Result.WriteCSV emits for the same
// grid), and temperature-less single-device grids keep the historical
// schema.
func NewCSVSinkFor(cfg Config, w io.Writer) (*CSVSink, error) {
	return newCSVSink(w, cfg.HasTemperatureAxis(), cfg.HasDeviceAxis())
}

func newCSVSink(w io.Writer, withTemp, withDevice bool) (*CSVSink, error) {
	if _, err := fmt.Fprintln(w, csvHeaderFor(withTemp, withDevice)); err != nil {
		return nil, err
	}
	return &CSVSink{w: w, temp: withTemp, device: withDevice}, nil
}

// Cell implements CellSink. A temperature- or device-carrying cell
// arriving at a sink without that column is a configuration error —
// silently dropping the axis column would make the grid's rows ambiguous
// and break the byte-identity contract with Result.WriteCSV — so it
// aborts the sweep.
func (s *CSVSink) Cell(c Cell, index, total int) error {
	if c.Cond.TempC != 0 && !s.temp {
		return fmt.Errorf("cell %s carries a temperature but the sink has the 2-D schema; construct it with NewCSVSinkFor", c.Cond)
	}
	if c.Cond.Device != "" && !s.device {
		return fmt.Errorf("cell %s carries a device but the sink has no device column; construct it with NewCSVSinkFor", c.Cond)
	}
	return writeCSVRow(s.w, c, s.temp, s.device)
}

// resequencer restores canonical order between the worker pool and the
// sink: workers deliver cells at arbitrary grid indices, and the
// resequencer releases whole stripes — normalized, in index order — as
// soon as every earlier stripe has been released. It also backfills
// Result.Cells, so the buffered and streaming views are the same data.
type resequencer struct {
	mu        sync.Mutex
	cells     []Cell // the Result's backing slice, filled in place; guarded by mu
	stride    int    // cells per (workload, condition) stripe
	filled    []int  // completed-cell count per stripe; guarded by mu
	next      int    // first stripe not yet released; guarded by mu
	reference string // normalization column
	sinks     []CellSink
	sinkErr   error // latched first sink failure; stops all further emission; guarded by mu
}

// newResequencer accepts the release-order consumers; nil sinks are
// dropped, and each released cell visits the remaining sinks in argument
// order (the primary sink before the metrics sink).
func newResequencer(cells []Cell, stride int, reference string, sinks ...CellSink) *resequencer {
	r := &resequencer{
		cells:     cells,
		stride:    stride,
		filled:    make([]int, len(cells)/stride),
		reference: reference,
	}
	for _, s := range sinks {
		if s != nil {
			r.sinks = append(r.sinks, s)
		}
	}
	return r
}

// complete records the measured cell at grid index idx and releases every
// stripe that is now contiguous with the released prefix. The first sink
// error is latched — later completions (from workers already in flight
// when the sweep starts aborting) must not re-emit the failed stripe's
// prefix — and returned wrapped; the caller aborts the sweep.
func (r *resequencer) complete(idx int, c Cell) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cells[idx] = c
	r.filled[idx/r.stride]++
	if r.sinkErr != nil {
		return r.sinkErr
	}
	for r.next < len(r.filled) && r.filled[r.next] == r.stride {
		base := r.next * r.stride
		stripe := r.cells[base : base+r.stride]
		normalizeStripe(stripe, r.reference)
		for i := range stripe {
			for _, sink := range r.sinks {
				if err := sink.Cell(stripe[i], base+i, len(r.cells)); err != nil {
					r.sinkErr = fmt.Errorf("experiments: cell sink: %w", err)
					return r.sinkErr
				}
			}
		}
		r.next++
	}
	return nil
}
