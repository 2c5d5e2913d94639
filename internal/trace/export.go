package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// ChromeEvent is one entry of the Chrome trace-event format ("X" = complete
// event). Times are microseconds; we map one virtual time unit (or
// nanosecond, for wall-clock traces) to one microsecond so the viewer's
// zoom behaves. Exported so other producers (internal/obs pipeline spans)
// can reuse this exporter and land in the same Perfetto timeline format as
// FLUSIM schedules.
type ChromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	PID  int32             `json:"pid"`
	TID  int32             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeEvents serialises pre-built events as a Chrome trace-event JSON
// array, loadable in chrome://tracing or Perfetto.
func WriteChromeEvents(w io.Writer, events []ChromeEvent) error {
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// WriteChromeTrace serialises the trace in the Chrome trace-event JSON array
// format, loadable in chrome://tracing or Perfetto. Processes map to PIDs,
// workers to TIDs, tasks to complete events named by subiteration.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	events := make([]ChromeEvent, 0, len(t.Spans))
	for _, s := range t.Spans {
		events = append(events, ChromeEvent{
			Name: fmt.Sprintf("sub%d", s.Sub),
			Cat:  "task",
			Ph:   "X",
			Ts:   s.Start,
			Dur:  s.End - s.Start,
			PID:  s.Proc,
			TID:  s.Worker,
			Args: map[string]string{"task": strconv.Itoa(int(s.Task))},
		})
	}
	return WriteChromeEvents(w, events)
}

// WriteCSV serialises the trace as CSV with the header
// proc,worker,task,sub,start,end — convenient for spreadsheet or pandas
// analysis of schedules.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"proc", "worker", "task", "sub", "start", "end"}); err != nil {
		return err
	}
	row := make([]string, 6)
	for _, s := range t.Spans {
		row[0] = strconv.Itoa(int(s.Proc))
		row[1] = strconv.Itoa(int(s.Worker))
		row[2] = strconv.Itoa(int(s.Task))
		row[3] = strconv.Itoa(int(s.Sub))
		row[4] = strconv.FormatInt(s.Start, 10)
		row[5] = strconv.FormatInt(s.End, 10)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
