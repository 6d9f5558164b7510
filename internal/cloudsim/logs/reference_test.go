package logs

import "time"

// queryRows is the row-at-a-time reference evaluator: every event
// becomes a map, every stage transforms the row slice through its
// apply method. It is the readable semantics the columnar path must
// reproduce; the differential and fuzz tests compare against it.
func (s *Service) queryRows(group, query string, from, to time.Time) (*QueryResult, error) {
	stages, err := parseQuery(query)
	if err != nil {
		return nil, err
	}
	events := s.Events(group, from, to)
	rows := make([]row, 0, len(events))
	for _, e := range events {
		r := row{
			"@timestamp": e.Time.UTC().Format("2006-01-02 15:04:05.000"),
			"@message":   e.Message,
			"@logGroup":  e.Group,
			"@logStream": e.Stream,
		}
		for k, v := range e.Fields {
			r[k] = v
		}
		rows = append(rows, r)
	}
	columns := []string{"@timestamp", "@message"}
	for _, st := range stages {
		rows, columns, err = st.apply(rows, columns)
		if err != nil {
			return nil, err
		}
	}
	res := &QueryResult{Columns: columns}
	for _, r := range rows {
		cells := make([]string, len(columns))
		for i, c := range columns {
			cells[i] = r[c]
		}
		res.Rows = append(res.Rows, cells)
	}
	return res, nil
}
