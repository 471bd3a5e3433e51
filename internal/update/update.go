// Package update implements the middleware's self-update loop.
//
// The paper: "Next generation middleware should be able to ... use COD
// techniques to dynamically update itself." Providers advertise the
// components they publish, with version attributes (AdvertiseComponents does
// it over beacons); an Updater on each device periodically asks either
// discovery style's Finder for those advertisements, compares them against
// its local registry and fetches anything newer — Code On Demand applied to
// the middleware's own component base.
package update

import (
	"maps"
	"slices"
	"time"

	"logmob/internal/core"
	"logmob/internal/discovery"
	"logmob/internal/lmu"
	"logmob/internal/transport"
)

// servicePrefix is the discovery service namespace for component
// advertisements: a unit named "codec/ogg" is advertised as
// "component/codec/ogg".
const servicePrefix = "component/"

// versionAttr is the advertisement attribute carrying the published version.
const versionAttr = "version"

// AdvertiseComponents announces on b every component the host currently
// publishes, with its newest version, under the component namespace.
// Call it again after publishing new versions.
func AdvertiseComponents(h *core.Host, b *discovery.Beacon, ttl time.Duration) int {
	count := 0
	for _, name := range h.Published() {
		u, ok := h.Registry().Get(name)
		if !ok {
			continue
		}
		b.Advertise(discovery.Ad{
			Service:  servicePrefix + name,
			Provider: h.Addr(),
			Attrs:    map[string]string{versionAttr: u.Manifest.Version},
			TTL:      ttl,
		})
		count++
	}
	return count
}

// Stats counts updater activity.
type Stats struct {
	Checks   int64
	Fetches  int64
	Updated  int64
	Failures int64
}

// Updater keeps a host's locally held components current with what the
// network advertises.
type Updater struct {
	host     *core.Host
	finder   discovery.Finder
	sched    transport.Scheduler
	interval time.Duration
	// OnUpdate, if set, observes each successful component update.
	OnUpdate func(name, provider, oldVersion, newVersion string)

	running bool
	timer   transport.Timer // the check cadence, made by the first Start
	stats   Stats
}

// New builds an updater that checks every interval (positive) using finder
// to learn about newer versions.
func New(h *core.Host, finder discovery.Finder, sched transport.Scheduler, interval time.Duration) *Updater {
	return &Updater{host: h, finder: finder, sched: sched, interval: interval}
}

// Stats returns a snapshot of the updater counters.
func (u *Updater) Stats() Stats { return u.stats }

// Start begins periodic checking. The first check runs immediately.
func (u *Updater) Start() {
	if u.running {
		return
	}
	u.running = true
	if u.timer == nil {
		u.timer = u.sched.NewTimer(u.tick)
	}
	u.tick()
}

func (u *Updater) tick() {
	if !u.running {
		return // a wall-clock firing that began before Stop
	}
	u.checkNow()
	u.timer.Reset(u.interval)
}

// Stop halts periodic checking.
func (u *Updater) Stop() {
	u.running = false
	if u.timer != nil {
		u.timer.Stop()
	}
}

// checkNow performs one update pass over every locally held component.
func (u *Updater) checkNow() {
	u.stats.Checks++
	seen := map[string]string{} // name -> newest local version
	for _, m := range u.host.Registry().List() {
		if m.Kind != lmu.KindComponent {
			continue
		}
		if v, ok := seen[m.Name]; !ok || lmu.CompareVersions(m.Version, v) > 0 {
			seen[m.Name] = m.Version
		}
	}
	// Each name sends a query, and message order decides every later RNG
	// draw of a simulated run: query in name order, not map order.
	for _, name := range slices.Sorted(maps.Keys(seen)) {
		localVersion := seen[name]
		u.finder.Find(discovery.Query{Service: servicePrefix + name}, func(ads []discovery.Ad) {
			best := bestAd(ads, localVersion)
			if best == nil {
				return
			}
			remote := best.Attrs[versionAttr]
			u.stats.Fetches++
			u.host.Fetch(best.Provider, name, remote, func(unit *lmu.Unit, err error) {
				if err != nil {
					u.stats.Failures++
					return
				}
				u.stats.Updated++
				if u.OnUpdate != nil {
					u.OnUpdate(name, best.Provider, localVersion, unit.Manifest.Version)
				}
			})
		})
	}
}

// bestAd returns the advertisement with the highest version strictly newer
// than local, or nil.
func bestAd(ads []discovery.Ad, local string) *discovery.Ad {
	var best *discovery.Ad
	for i := range ads {
		v := ads[i].Attrs[versionAttr]
		if v == "" || lmu.CompareVersions(v, local) <= 0 {
			continue
		}
		if best == nil || lmu.CompareVersions(v, best.Attrs[versionAttr]) > 0 {
			best = &ads[i]
		}
	}
	return best
}
