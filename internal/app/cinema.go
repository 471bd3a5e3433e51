package app

import (
	"time"

	"logmob/internal/core"
	"logmob/internal/ctxsvc"
	"logmob/internal/lmu"
	"logmob/internal/netsim"
	"logmob/internal/security"
	"logmob/internal/transport"
	"logmob/internal/vm"
)

// The location-based services scenario: "a user can be automatically
// presented with a graphical user interface to order movie tickets, upon
// entering a cinema's premises."

// TicketUIName is the unit name of the cinema's ticket-ordering UI.
const TicketUIName = "ui/cinema-tickets"

// ticketUISource is the UI component: "render" lays out the screening menu
// from its data blob and returns the number of menu entries.
const ticketUISource = `
.entry render
render:
	push 0
	host blob_len   ; menu bytes
	push 16
	div             ; 16 bytes per screening entry
	halt
`

// BuildTicketUI creates the signed cinema UI component with a menu of the
// given number of screenings; uiSize pads the unit to a realistic size.
func BuildTicketUI(publisher *security.Identity, screenings, uiSize int) *lmu.Unit {
	menu := make([]byte, screenings*16)
	for i := range menu {
		menu[i] = byte(i % 7)
	}
	padding := uiSize - len(menu)
	if padding < 0 {
		padding = 0
	}
	u := &lmu.Unit{
		Manifest: lmu.Manifest{
			Name:      TicketUIName,
			Version:   "1.0",
			Kind:      lmu.KindComponent,
			Publisher: publisher.Name,
			Attrs:     map[string]string{"service": "cinema/tickets"},
		},
		Code: vm.MustAssemble(ticketUISource).Encode(),
		Data: map[string][]byte{
			"menu":   menu,
			"assets": make([]byte, padding),
		},
	}
	publisher.Sign(u)
	return u
}

// Geofence maps a circular region of the simulated field to a symbolic
// location name.
type Geofence struct {
	Name   string
	Center netsim.Position
	Radius float64
}

// geofenceTick is how often the location sensor reads the node's position.
const geofenceTick = time.Second

// StartGeofencing is the scenario's location sensor: every geofenceTick it
// resolves the node's position against the fences and updates the context
// service's location attribute ("roaming" when in none). It returns a stop
// function.
func StartGeofencing(net *netsim.Network, nodeID string, ctx *ctxsvc.Service, fences []Geofence) func() {
	var tick transport.Timer
	step := func() {
		node := net.Node(nodeID)
		if node != nil {
			loc := "roaming"
			for _, f := range fences {
				if node.Pos().Dist(f.Center) <= f.Radius {
					loc = f.Name
					break
				}
			}
			if ctx.GetStr(ctxsvc.KeyLocation, "") != loc {
				ctx.SetStr(ctxsvc.KeyLocation, loc)
			}
		}
		tick.Reset(geofenceTick)
	}
	tick = net.Sim().NewTimer(step)
	step()
	return tick.Stop
}

// AutoService wires the paper's walk-in flow on a user device: when the
// device's location context becomes location, fetch the named UI component
// from provider (COD, cache-aware) and run its entry point. onReady fires
// with the elapsed time from entering the zone to the UI being up.
func AutoService(h *core.Host, location, provider, unitName, entry string,
	onReady func(elapsed time.Duration, hit bool, err error)) *ctxsvc.Subscription {
	return h.Context().Subscribe(ctxsvc.KeyLocation,
		func(v ctxsvc.Value) bool { return v.Str == location },
		func(_ ctxsvc.Key, _ ctxsvc.Value) {
			entered := h.Scheduler().Now()
			h.Ensure(provider, unitName, "", func(u *lmu.Unit, hit bool, err error) {
				if err != nil {
					onReady(0, hit, err)
					return
				}
				if _, err := h.RunComponent(unitName, entry); err != nil {
					onReady(0, hit, err)
					return
				}
				onReady(h.Scheduler().Now()-entered, hit, nil)
			})
		})
}
