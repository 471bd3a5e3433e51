package sim

import (
	"fmt"
	"time"

	"logmob/internal/app"
	"logmob/internal/metrics"
	"logmob/internal/netsim"
	"logmob/internal/scenario"
)

// T9 measures the location-based-services scenario end to end: a user walks
// into a cinema, a geofence flips the device's location context, and the
// ticket UI is fetched (first visit) or reused from cache (return visit).
// The link class between device and venue is swept.
func T9() Experiment {
	return Experiment{
		ID:    "T9",
		Title: "Location-based services: time-to-service on walk-in",
		Motivation: `"COD can allow a mobile user to transparently operate ` +
			`services that are currently available in the user's location. For ` +
			`example a user can be automatically presented with a graphical user ` +
			`interface to order movie tickets, upon entering a cinema's premises."`,
		Run: runT9,
	}
}

const (
	t9UISize     = 16 << 10
	t9Screenings = 12
)

func runT9(seed int64) *Result {
	res := &Result{ID: "T9", Title: "Walk-in time-to-service"}
	table := metrics.NewTable(fmt.Sprintf(
		"Table T9: %dKB ticket UI, geofenced walk-in, first visit vs return visit",
		t9UISize>>10),
		"link", "first visit ms", "return visit ms", "UI fetched B")

	for _, link := range []struct {
		name  string
		class netsim.LinkClass
	}{
		{"adhoc", netsim.AdHoc},
		{"wlan", netsim.WLAN},
		{"gprs", netsim.GPRS},
	} {
		first, ret, fetched := runT9Walk(seed, link.class)
		table.AddRow(link.name,
			fmt.Sprintf("%.0f", float64(first.Milliseconds())),
			fmt.Sprintf("%.0f", float64(ret.Milliseconds())),
			fetched)
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes,
		"expected shape: first visit pays the UI transfer (slowest on gprs); return visits are near-instant cache hits on every link")
	return res
}

// runT9Walk walks a user into the cinema zone twice and reports the two
// time-to-service values and the bytes fetched.
func runT9Walk(seed int64, class netsim.LinkClass) (first, ret time.Duration, fetched int64) {
	w := scenario.NewWorld(seed)
	venuePos := netsim.Position{X: 100, Y: 100}
	venueClass := class
	if !class.Infrastructure {
		venueClass.Range = 80
	}
	cinema := w.AddHost("cinema", venuePos, venueClass, nil)
	userClass := class
	if !class.Infrastructure {
		userClass.Range = 80
	}
	user := w.AddHost("user", netsim.Position{X: 400, Y: 100}, userClass, nil)
	if err := cinema.Publish(app.BuildTicketUI(w.ID, t9Screenings, t9UISize)); err != nil {
		panic(err)
	}

	stop := app.StartGeofencing(w.Net, "user", user.Context(),
		[]app.Geofence{{Name: "cinema", Center: venuePos, Radius: 60}})
	defer stop()

	var visits []time.Duration
	app.AutoService(user, "cinema", "cinema", app.TicketUIName, "render",
		func(elapsed time.Duration, hit bool, err error) {
			if err == nil {
				visits = append(visits, elapsed)
			}
		})

	// Walk in, walk out, walk back in.
	w.Net.StartMobility(&netsim.Waypath{
		Points: []netsim.Position{
			{X: 110, Y: 100}, // in
			{X: 400, Y: 100}, // out
			{X: 110, Y: 100}, // back in
		},
		Speed: 15,
	}, time.Second, "user")
	w.Sim.RunFor(10 * time.Minute)

	if len(visits) < 2 {
		panic(fmt.Sprintf("T9: expected 2 walk-ins, got %d", len(visits)))
	}
	u := w.Net.UsageOf("user")
	return visits[0], visits[1], u.BytesRecv
}
