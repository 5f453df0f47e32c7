package experiments

import (
	"fmt"
	"io"
	"strings"

	"readretry/internal/ssd/retrymetrics"
)

// metricsCSVHeaderFor selects the per-cell metrics CSV's header row for a
// grid's axis shape: the same axis prefix as the sweep CSV (workload, pec,
// months, optional temp_c / device, config) followed by the retry-metrics
// columns. The streaming sink and the buffered WriteMetricsCSV share it,
// so their output is byte-identical for the same grid.
func metricsCSVHeaderFor(withTemp, withDevice bool) string {
	prefix := "workload,pec,months"
	if withTemp {
		prefix += ",temp_c"
	}
	if withDevice {
		prefix += ",device"
	}
	return prefix + ",config," + strings.Join(retrymetrics.CSVColumns(), ",")
}

// writeMetricsCSVRow formats one cell's metrics row: the axis prefix
// rendered exactly as writeCSVRow renders it, then the retry summary's
// fixed-format fields. A cell without a retry digest is a configuration
// error — the sweep ran without Base.RetryMetrics — reported rather than
// rendered as an ambiguous empty row.
func writeMetricsCSVRow(w io.Writer, c Cell, withTemp, withDevice bool) error {
	if c.Retry == nil {
		return fmt.Errorf("cell %s/%s/%s carries no retry metrics; enable Config.Base.RetryMetrics",
			c.Workload, c.Cond, c.Config)
	}
	var prefix string
	switch {
	case withTemp && withDevice:
		prefix = fmt.Sprintf("%s,%d,%g,%g,%s,%s", c.Workload, c.Cond.PEC, c.Cond.Months,
			c.Cond.TempC, c.Cond.Device, c.Config)
	case withTemp:
		prefix = fmt.Sprintf("%s,%d,%g,%g,%s", c.Workload, c.Cond.PEC, c.Cond.Months,
			c.Cond.TempC, c.Config)
	case withDevice:
		prefix = fmt.Sprintf("%s,%d,%g,%s,%s", c.Workload, c.Cond.PEC, c.Cond.Months,
			c.Cond.Device, c.Config)
	default:
		prefix = fmt.Sprintf("%s,%d,%g,%s", c.Workload, c.Cond.PEC, c.Cond.Months, c.Config)
	}
	_, err := fmt.Fprintf(w, "%s,%s\n", prefix, strings.Join(c.Retry.CSVFields(), ","))
	return err
}

// MetricsCSVSink streams one retry-metrics row per cell as the engine
// releases it — the Config.MetricsSink counterpart of CSVSink. Rows appear
// in canonical grid order at every parallelism setting, so for the same
// grid its output is byte-identical across runs and to the buffered
// Result.WriteMetricsCSV.
type MetricsCSVSink struct {
	w      io.Writer
	temp   bool
	device bool
}

// NewMetricsCSVSink writes the temperature-less single-device metrics
// header to w and returns the streaming sink. For a grid that sweeps
// temperature or device, use NewMetricsCSVSinkFor.
func NewMetricsCSVSink(w io.Writer) (*MetricsCSVSink, error) {
	return newMetricsCSVSink(w, false, false)
}

// NewMetricsCSVSinkFor is NewMetricsCSVSink with the schema chosen from
// the sweep configuration, mirroring NewCSVSinkFor.
func NewMetricsCSVSinkFor(cfg Config, w io.Writer) (*MetricsCSVSink, error) {
	return newMetricsCSVSink(w, cfg.HasTemperatureAxis(), cfg.HasDeviceAxis())
}

func newMetricsCSVSink(w io.Writer, withTemp, withDevice bool) (*MetricsCSVSink, error) {
	if _, err := fmt.Fprintln(w, metricsCSVHeaderFor(withTemp, withDevice)); err != nil {
		return nil, err
	}
	return &MetricsCSVSink{w: w, temp: withTemp, device: withDevice}, nil
}

// Cell implements CellSink.
func (s *MetricsCSVSink) Cell(c Cell, index, total int) error {
	if c.Cond.TempC != 0 && !s.temp {
		return fmt.Errorf("cell %s carries a temperature but the metrics sink has the 2-D schema; construct it with NewMetricsCSVSinkFor", c.Cond)
	}
	if c.Cond.Device != "" && !s.device {
		return fmt.Errorf("cell %s carries a device but the metrics sink has no device column; construct it with NewMetricsCSVSinkFor", c.Cond)
	}
	return writeMetricsCSVRow(s.w, c, s.temp, s.device)
}

// WriteMetricsCSV emits the per-cell retry-metrics CSV from a completed
// Result — the buffered counterpart of MetricsCSVSink, sharing
// its header and row formatting, so both render byte-identical output for
// the same cells. Every cell must carry a retry digest (the sweep ran with
// Base.RetryMetrics).
func (r *Result) WriteMetricsCSV(w io.Writer) error {
	withTemp, withDevice := false, false
	for _, c := range r.Cells {
		if c.Cond.TempC != 0 {
			withTemp = true
		}
		if c.Cond.Device != "" {
			withDevice = true
		}
	}
	if _, err := fmt.Fprintln(w, metricsCSVHeaderFor(withTemp, withDevice)); err != nil {
		return err
	}
	for _, c := range r.Cells {
		if err := writeMetricsCSVRow(w, c, withTemp, withDevice); err != nil {
			return err
		}
	}
	return nil
}
