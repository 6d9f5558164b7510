package iot

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/cloudsim/plane"
	"repro/internal/cloudsim/s3"
	"repro/internal/cloudsim/sim"
	"repro/internal/core"
	"repro/internal/crypto/envelope"
)

func newHome(t *testing.T) (*core.Cloud, *core.Deployment) {
	t.Helper()
	cloud, err := core.NewCloud(core.CloudOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Install(cloud, "alice", App{
		AlertRules: map[string]float64{"temperature_c": 60, "water_ppm": 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cloud, d
}

func do(t *testing.T, d *core.Deployment, op string, v any) (int, []byte) {
	t.Helper()
	var body []byte
	switch x := v.(type) {
	case nil:
	case []byte:
		body = x
	default:
		var err error
		body, err = json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, _, err := d.Invoke(d.ClientContext(), op, body)
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	return resp.Status, resp.Body
}

func dataKey(t *testing.T, d *core.Deployment) []byte {
	t.Helper()
	key, err := d.Cloud.KMS.Decrypt(d.ClientContext(), d.WrappedKey)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestRegisterAndDashboard(t *testing.T) {
	_, d := newHome(t)
	if st, _ := do(t, d, "register", Device{Name: "thermostat", Kind: "climate"}); st != 200 {
		t.Fatalf("register status %d", st)
	}
	if st, _ := do(t, d, "register", Device{Name: "doorlock", Kind: "security"}); st != 200 {
		t.Fatalf("register status %d", st)
	}
	// Duplicate registration is refused.
	if st, _ := do(t, d, "register", Device{Name: "thermostat"}); st != 409 {
		t.Fatalf("dup register status %d", st)
	}
	st, body := do(t, d, "dashboard", nil)
	if st != 200 {
		t.Fatalf("dashboard status %d", st)
	}
	var db Dashboard
	if err := json.Unmarshal(body, &db); err != nil {
		t.Fatal(err)
	}
	if len(db.Devices) != 2 || db.Devices[0].Name != "doorlock" {
		t.Fatalf("dashboard = %+v", db)
	}
}

func TestCommandRelay(t *testing.T) {
	cloud, d := newHome(t)
	do(t, d, "register", Device{Name: "thermostat", Kind: "climate"})
	if st, _ := do(t, d, "command", Command{Device: "thermostat", Action: "set", Arg: "21C"}); st != 200 {
		t.Fatalf("command status %d", st)
	}
	// The device long-polls its commands queue and opens the payload.
	ctx := d.ClientContext()
	msgs, err := cloud.SQS.Receive(ctx, d.Queues[CommandsQueue], 1, 20*time.Second)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("device poll: %v, %d msgs", err, len(msgs))
	}
	var cmd Command
	if err := OpenQueueJSON(dataKey(t, d), msgs[0].Body, "command", &cmd); err != nil {
		t.Fatal(err)
	}
	if cmd.Action != "set" || cmd.Arg != "21C" {
		t.Fatalf("command = %+v", cmd)
	}
}

func TestCommandUnknownDevice(t *testing.T) {
	_, d := newHome(t)
	if st, _ := do(t, d, "command", Command{Device: "ghost", Action: "x"}); st != 404 {
		t.Fatalf("unknown device status %d", st)
	}
}

func TestQueryStatistics(t *testing.T) {
	_, d := newHome(t)
	do(t, d, "register", Device{Name: "thermostat"})
	for i := 0; i < 3; i++ {
		do(t, d, "command", Command{Device: "thermostat", Action: "read"})
	}
	_, body := do(t, d, "dashboard", nil)
	var db Dashboard
	json.Unmarshal(body, &db)
	if db.Queries != 3 || db.Devices[0].Queries != 3 {
		t.Fatalf("stats: total %d device %d, want 3/3", db.Queries, db.Devices[0].Queries)
	}
}

func TestTelemetryAndAlerts(t *testing.T) {
	cloud, d := newHome(t)
	do(t, d, "register", Device{Name: "boiler"})

	// Nominal report: no alert.
	st, body := do(t, d, "report", Report{Device: "boiler", Metrics: map[string]float64{"temperature_c": 45}})
	if st != 200 || string(body) != "0" {
		t.Fatalf("nominal report: status %d fired %s", st, body)
	}
	// Overheat: alert fires.
	st, body = do(t, d, "report", Report{Device: "boiler", Metrics: map[string]float64{"temperature_c": 95}})
	if st != 200 || string(body) != "1" {
		t.Fatalf("overheat report: status %d fired %s", st, body)
	}
	ctx := d.ClientContext()
	msgs, err := cloud.SQS.Receive(ctx, d.Queues[AlertsQueue], 1, 20*time.Second)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("alert poll: %v, %d msgs", err, len(msgs))
	}
	var alert Alert
	if err := OpenQueueJSON(dataKey(t, d), msgs[0].Body, "alert", &alert); err != nil {
		t.Fatal(err)
	}
	if alert.Device != "boiler" || alert.Metric != "temperature_c" || alert.Value != 95 {
		t.Fatalf("alert = %+v", alert)
	}
	// The dashboard reflects the latest metrics and the alert count.
	_, dbBody := do(t, d, "dashboard", nil)
	var db Dashboard
	json.Unmarshal(dbBody, &db)
	if db.Alerts != 1 || db.Devices[0].Metrics["temperature_c"] != 95 {
		t.Fatalf("dashboard after alert = %+v", db)
	}
	if db.Devices[0].LastSeen.IsZero() {
		t.Fatal("last seen not updated")
	}
}

func TestReportUnknownDevice(t *testing.T) {
	_, d := newHome(t)
	if st, _ := do(t, d, "report", Report{Device: "ghost"}); st != 404 {
		t.Fatalf("unknown device report status %d", st)
	}
}

func TestValidation(t *testing.T) {
	_, d := newHome(t)
	if st, _ := do(t, d, "register", []byte("junk")); st != 400 {
		t.Fatalf("junk register status %d", st)
	}
	if st, _ := do(t, d, "command", Command{}); st != 400 {
		t.Fatalf("empty command status %d", st)
	}
	if st, _ := do(t, d, "report", []byte("junk")); st != 400 {
		t.Fatalf("junk report status %d", st)
	}
	if st, _ := do(t, d, "selfdestruct", nil); st != 400 {
		t.Fatalf("unknown op status %d", st)
	}
}

func TestRegistryAtRestIsSealed(t *testing.T) {
	cloud, d := newHome(t)
	do(t, d, "register", Device{Name: "secret-camera", Kind: "video"})
	admin := &sim.Context{Principal: d.Role}
	obj, err := cloud.S3.Get(admin, d.Bucket, "registry")
	if err != nil {
		t.Fatal(err)
	}
	if !envelope.IsSealed(obj.Data) || bytes.Contains(obj.Data, []byte("secret-camera")) {
		t.Fatal("registry leaks plaintext")
	}
}

// TestFailedRegistryReadKeepsDevices fails one registry read with a
// non-missing error: the registration must fail without writing the
// registry, so every enrolled device survives. Treating the failed
// read as an empty registry would forget them on the next save.
func TestFailedRegistryReadKeepsDevices(t *testing.T) {
	cloud, d := newHome(t)
	for _, name := range []string{"doorlock", "thermostat"} {
		if st, _ := do(t, d, "register", Device{Name: name}); st != 200 {
			t.Fatalf("register %s status %d", name, st)
		}
	}
	errThrottled := errors.New("s3: slow down")
	reg := s3.ObjectResource(d.Bucket, "registry")
	failNextGet, regPuts := false, 0
	cloud.S3.Plane().Use(func(next plane.HandlerFunc) plane.HandlerFunc {
		return func(r *plane.Request) error {
			if r.Call.Resource == reg {
				switch r.Call.Action {
				case s3.ActionGet:
					if failNextGet {
						failNextGet = false
						return errThrottled
					}
				case s3.ActionPut:
					regPuts++
				}
			}
			return next(r)
		}
	})

	failNextGet = true
	body, _ := json.Marshal(Device{Name: "smoke"})
	if _, _, err := d.Invoke(d.ClientContext(), "register", body); err == nil {
		t.Fatal("register succeeded although the registry read failed")
	}
	if failNextGet {
		t.Fatal("the registration never read the registry")
	}
	if regPuts != 0 {
		t.Fatalf("failed registration wrote the registry %d times", regPuts)
	}
	st, out := do(t, d, "dashboard", nil)
	if st != 200 {
		t.Fatalf("dashboard status %d", st)
	}
	var db Dashboard
	if err := json.Unmarshal(out, &db); err != nil {
		t.Fatal(err)
	}
	if len(db.Devices) != 2 || db.Devices[0].Name != "doorlock" || db.Devices[1].Name != "thermostat" {
		t.Fatalf("dashboard after the failed registration = %+v", db.Devices)
	}
}
