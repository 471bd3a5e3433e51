package discovery

import (
	"sort"
	"time"

	"logmob/internal/transport"
	"logmob/internal/wire"
)

// Beacon implements decentralised ad-hoc discovery: the node periodically
// broadcasts its own advertisements to its current radio neighbors and
// caches advertisements it hears. No infrastructure is required, so it keeps
// working in the partitioned, centralised-index-free environments where the
// paper argues Jini-style lookup breaks down.
type Beacon struct {
	ep       transport.Endpoint
	sched    transport.Scheduler
	interval time.Duration
	local    map[string]Ad // service -> own ad
	frame    []byte        // cached encoded beacon; nil after local changes
	cache    *adTable
	running  bool
	batch    *BeaconBatch // owns the cadence; set by Start or BeaconBatch.Add
	// Heard counts beacon messages received.
	Heard int64
	// Sent counts beacon broadcasts performed.
	Sent int64

	// MissEvict, when positive, evicts every cached ad from a neighbor once
	// MissEvict beacon intervals pass without hearing from it — the cached
	// view of a silent (lost, churned, partitioned-away) neighbor decays at
	// miss speed instead of lingering until each ad's TTL. 0 (the default)
	// disables miss tracking entirely and changes nothing. Set it before
	// the first beacons are heard; providers heard earlier are not tracked.
	MissEvict int
	// Evicted counts ads removed by miss eviction.
	Evicted   int64
	lastHeard map[string]time.Duration // provider -> time of last beacon
}

var _ Finder = (*Beacon)(nil)

// NewBeacon attaches a beacon service to ep, broadcasting every interval
// once Start is called.
func NewBeacon(ep transport.Endpoint, sched transport.Scheduler, interval time.Duration) *Beacon {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	b := &Beacon{
		ep:       ep,
		sched:    sched,
		interval: interval,
		local:    make(map[string]Ad),
		cache:    newAdTable(sched.Now),
	}
	ep.SetHandler(b.handle)
	return b
}

// Advertise adds (or replaces) a local service advertisement included in
// every subsequent beacon. An unset TTL defaults to three beacon intervals,
// so an ad survives two lost beacons before neighbors expire it.
func (b *Beacon) Advertise(ad Ad) {
	if ad.Provider == "" {
		ad.Provider = b.ep.Addr()
	}
	if ad.TTL <= 0 {
		ad.TTL = 3 * b.interval
	}
	b.local[ad.Service] = ad
	b.frame = nil
}

// Withdraw removes a local advertisement. Neighbors expire it by TTL.
func (b *Beacon) Withdraw(service string) {
	delete(b.local, service)
	b.frame = nil
}

// Start begins periodic broadcasting. The first beacon goes out immediately;
// subsequent ones ride the cadence of the beacon's BeaconBatch. A beacon
// nobody added to a batch starts a private batch of one.
func (b *Beacon) Start() {
	if b.running {
		return
	}
	if b.batch == nil {
		NewBeaconBatch(b.sched, b.interval).Add(b)
		return
	}
	b.batch.start(b)
}

// tickOnce runs one beacon cycle — miss eviction, then a broadcast of all
// local ads — without touching the cadence timer. Miss eviction is
// time-driven, anchored to the beacon's cadence: a silent neighbor's ads
// decay even if nobody ever queries this cache. (Queries still run the same
// sweep, so a Find between ticks sees exactly what lazy-only eviction
// produced.) The encoded frame only depends on the ad set (TTLs are
// relative), so it is built once per Advertise/Withdraw and reused across
// ticks — at thousands of beaconing nodes the per-tick sort+encode is the
// discovery hot path. scratch is the batch's reusable sort buffer for frame
// rebuilds; the possibly-grown buffer is returned so it pools across members.
func (b *Beacon) tickOnce(scratch []string) []string {
	b.evictMissing()
	if len(b.local) == 0 {
		return scratch
	}
	if b.frame == nil {
		var buf wire.Buffer
		buf.PutUint(uint64(len(b.local)))
		// Deterministic order.
		scratch = scratch[:0]
		for s := range b.local {
			scratch = append(scratch, s)
		}
		sort.Strings(scratch)
		for _, s := range scratch {
			ad := b.local[s]
			ad.encode(&buf)
		}
		b.frame = buf.Bytes()
	}
	b.ep.Broadcast(b.frame)
	b.Sent++
	return scratch
}

// Stop halts broadcasting. Cached remote ads continue to expire naturally.
// The beacon stays registered with its batch but is skipped by the shared
// cadence until Start rejoins it.
func (b *Beacon) Stop() {
	if b.running {
		b.running = false
		b.batch.stopped()
	}
}

func (b *Beacon) handle(from string, payload []byte) {
	r := wire.NewReader(payload)
	n := r.Uint()
	if n > uint64(len(payload)) {
		return
	}
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		ad := decodeAd(r)
		if r.Err() == nil && ad.Service != "" {
			b.cache.put(ad)
		}
	}
	if r.Err() == nil {
		b.Heard++
		if b.MissEvict > 0 {
			if b.lastHeard == nil {
				b.lastHeard = make(map[string]time.Duration)
			}
			b.lastHeard[from] = b.sched.Now()
		}
	}
}

// evictMissing drops every cached ad from providers silent for more than
// MissEvict beacon intervals. Beacons are one-hop, so the transport sender
// is the provider whose ads decay.
func (b *Beacon) evictMissing() {
	if b.MissEvict <= 0 || len(b.lastHeard) == 0 {
		return
	}
	now := b.sched.Now()
	deadline := time.Duration(b.MissEvict) * b.interval
	for provider, heard := range b.lastHeard {
		if now-heard > deadline {
			b.Evicted += int64(b.cache.dropProvider(provider))
			delete(b.lastHeard, provider)
		}
	}
}

// Find answers immediately from the local cache plus the node's own
// advertisements; no traffic is generated.
func (b *Beacon) Find(q Query, cb func(ads []Ad)) {
	b.evictMissing()
	ads := b.cache.find(q)
	for _, ad := range b.local {
		if q.Matches(ad) {
			ads = append(ads, ad)
		}
	}
	sortAds(ads)
	cb(ads)
}

// CacheSize returns the number of live cached remote advertisements.
func (b *Beacon) CacheSize() int {
	b.evictMissing()
	return b.cache.size()
}

// Providers returns the number of distinct neighbors whose advertisements
// are currently cached — the beacon's live estimate of its discovery
// neighborhood, which the context sensors sample as a neighbor count.
func (b *Beacon) Providers() int {
	b.evictMissing()
	return b.cache.providers()
}
