package discovery

import (
	"bytes"
	"slices"
	"strings"
	"time"

	"logmob/internal/transport"
	"logmob/internal/wire"
)

// Beacon implements decentralised ad-hoc discovery: the node periodically
// broadcasts its own advertisements to its current radio neighbors and
// caches advertisements it hears. No infrastructure is required, so it keeps
// working in the partitioned, centralised-index-free environments where the
// paper argues Jini-style lookup breaks down.
//
// What it hears is kept as a neighbor table: one record per sender, naming
// the decoded frame that sender last broadcast and when it was heard. The
// listener stores nothing per advertisement — an ad's expiry is the record's
// heardAt plus the ad's TTL, computed when somebody asks — and the decoded
// frame is shared with every other listener of the same memo (see
// frameMemo). Single-goroutine, like the scheduler that drives it.
type Beacon struct {
	ep       transport.Endpoint
	sched    transport.Scheduler
	interval time.Duration
	local    []Ad       // own ads, one per service, sorted by Service
	frame    []byte     // cached encoded beacon; nil after local changes
	nbrs     []neighbor // what was heard, in order of last hearing
	memo     frameMemo  // the batch's once Add ran; private (lazily made) before
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
	// evicts nothing. The deadline is read when the table is swept, so
	// setting it late also covers neighbors heard earlier.
	MissEvict int
	// Evicted counts ads removed by miss eviction that were still live (an
	// ad whose TTL ran out first expired, it was not evicted).
	Evicted int64
}

var _ Finder = (*Beacon)(nil)

// neighbor is one sender's standing claim: the frame it broadcast and when
// this listener last heard exactly those bytes from it. The sender's address
// is frame.from; tag stands in for it while probing the table, so a miss
// costs one word compare per record instead of a string compare. The table
// is kept in order of last hearing, so a later record is a later claim.
type neighbor struct {
	frame   *decodedFrame
	tag     uint64 // senderTag(frame.from)
	heardAt time.Duration
}

// senderTag folds an address's length and last eight bytes — where node IDs
// and host:port strings differ — into one word. Equal addresses have equal
// tags; a collision only costs the string compare the tag usually saves.
func senderTag(from string) uint64 {
	t := uint64(len(from))
	for i := max(0, len(from)-8); i < len(from); i++ {
		t = t<<8 ^ t>>56 ^ uint64(from[i])
	}
	return t
}

// sentBy reports whether r is a record of the sender with this address and tag.
func (r *neighbor) sentBy(from string, tag uint64) bool {
	return r.tag == tag && r.frame.from == from
}

// decodedFrame is a beacon frame decoded once. It is immutable and shared:
// every listener of one memo that hears these bytes from this sender points
// its record here. Only refs changes, and only on the event loop.
type decodedFrame struct {
	from string
	// bytes is a private copy of the wire frame (handler payloads belong to
	// the network). nil marks a remainder: the ads of a superseded frame the
	// sender's newer frame no longer carries, private to one listener.
	bytes []byte
	// ads holds the frame's storable ads: non-empty service, one per
	// (provider, service) — a repeat inside one frame keeps the later ad.
	ads    []Ad
	maxTTL time.Duration // longest lease in ads
	// plain: a frame as sent whose every ad names the sender as provider.
	// A table of plain records cannot hold one (provider, service) twice.
	plain bool
	refs  int // neighbor records pointing here
}

// is reports whether payload is the frame f was decoded from.
func (f *decodedFrame) is(payload []byte) bool {
	return f.bytes != nil && bytes.Equal(f.bytes, payload)
}

// frameMemo remembers, per sender address, the last frame heard and its
// decoding, so a frame is decoded once per memo instead of once per
// listener per round: a sender rebuilds its frame only on Advertise or
// Withdraw, and all its neighbors hear the same bytes. The beacons of one
// BeaconBatch share a memo (they already share a goroutine). It holds at most
// one entry per sender, and only while some listener's record points at that
// entry: release drops it with the last reference.
type frameMemo map[string]*decodedFrame

// NewBeacon attaches a beacon service to ep, broadcasting every interval
// once Start is called.
func NewBeacon(ep transport.Endpoint, sched transport.Scheduler, interval time.Duration) *Beacon {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	b := &Beacon{ep: ep, sched: sched, interval: interval}
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
	if i, found := b.findLocal(ad.Service); found {
		b.local[i] = ad
	} else {
		b.local = slices.Insert(b.local, i, ad)
	}
	b.frame = nil
}

// Withdraw removes a local advertisement. Neighbors expire it by TTL: the
// next, changed frame replaces what they hold for the services it still
// carries and leaves the withdrawn one to run out. Withdrawing a service
// that is not advertised changes nothing.
func (b *Beacon) Withdraw(service string) {
	if i, found := b.findLocal(service); found {
		b.local = slices.Delete(b.local, i, i+1)
		b.frame = nil
	}
}

// findLocal returns where service's own ad sits in b.local, or where it
// would be inserted.
func (b *Beacon) findLocal(service string) (int, bool) {
	return slices.BinarySearchFunc(b.local, service, func(ad Ad, s string) int {
		return strings.Compare(ad.Service, s)
	})
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

// tickOnce runs one beacon cycle — a sweep of the neighbor table, then a
// broadcast of all local ads — without touching the cadence timer. The
// sweep is time-driven, anchored to the beacon's cadence: a silent
// neighbor's record goes even if nobody ever queries this beacon, so a
// table is bounded by the live neighbourhood, not by history. (Queries run
// the same sweep, so a Find between ticks sees exactly what lazy-only
// expiry produced.) The encoded frame only depends on the ad set (TTLs are
// relative), so it is built once per Advertise/Withdraw and reused across
// ticks. The ads go out in service order, the order b.local keeps.
func (b *Beacon) tickOnce() {
	b.sweep()
	if len(b.local) == 0 {
		return
	}
	if b.frame == nil {
		var buf wire.Buffer
		buf.PutUint(uint64(len(b.local)))
		for _, ad := range b.local {
			ad.encode(&buf)
		}
		b.frame = buf.Bytes()
	}
	b.ep.Broadcast(b.frame)
	b.Sent++
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

// handle hears one beacon. The common case — a sender already in the table
// repeating the frame it sent last round — is one scan and a move of its
// record to the end, which keeps the table in hearing order. Anything else
// goes through the memo; a frame that fails any decode check changes no
// state at all.
func (b *Beacon) handle(from string, payload []byte) {
	now, tag := b.sched.Now(), senderTag(from)
	known := false
	for i := range b.nbrs {
		r := &b.nbrs[i]
		if !r.sentBy(from, tag) {
			continue
		}
		if r.frame.is(payload) {
			moved := neighbor{frame: r.frame, tag: tag, heardAt: now}
			copy(b.nbrs[i:], b.nbrs[i+1:])
			b.nbrs[len(b.nbrs)-1] = moved
			b.Heard++
			return
		}
		known = true
	}
	f := b.memo[from]
	fresh := f == nil || !f.is(payload)
	if fresh {
		if f = decodeFrame(from, payload); f == nil {
			return
		}
	}
	b.Heard++
	if len(f.ads) == 0 {
		return // nothing to store, nothing worth sharing
	}
	if fresh {
		if b.memo == nil {
			b.memo = make(frameMemo)
		}
		b.memo[from] = f
	}
	if known {
		b.supersede(f, tag)
	}
	f.refs++
	b.nbrs = append(b.nbrs, neighbor{frame: f, tag: tag, heardAt: now})
}

// decodeFrame decodes one beacon frame, or returns nil if any check fails.
func decodeFrame(from string, payload []byte) *decodedFrame {
	r := wire.NewReader(payload)
	n := r.Uint()
	if n > uint64(len(payload)) {
		return nil
	}
	f := &decodedFrame{from: from, plain: true}
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		ad := decodeAd(r)
		if r.Err() != nil || ad.Service == "" {
			continue
		}
		if ad.Provider == from {
			ad.Provider = from // one string per sender, not one per decode
		} else {
			f.plain = false
		}
		f.ads = append(f.ads, ad)
	}
	if r.Err() != nil {
		return nil
	}
	f.bytes = append([]byte(nil), payload...)
	f.ads = latestPerKey(f.ads)
	f.maxTTL = maxLeaseOf(f.ads)
	return f
}

func maxLeaseOf(ads []Ad) time.Duration {
	var longest time.Duration
	for _, ad := range ads {
		longest = max(longest, leaseTTL(ad))
	}
	return longest
}

// latestPerKey drops, in place, every ad that a later claim for the same
// (provider, service) overrides.
func latestPerKey(ads []Ad) []Ad {
	if len(ads) < 2 {
		return ads
	}
	at := make(map[adKey]int, len(ads))
	k := 0
	for _, ad := range ads {
		key := adKey{ad.Provider, ad.Service}
		j, dup := at[key]
		if !dup {
			j = k
			at[key] = j
			k++
		}
		ads[j] = ad
	}
	return ads[:k]
}

// supersede runs when a sender is heard with a frame f other than the one its
// record holds (it advertised, withdrew, or re-advertised differently). Each
// older record of that sender shrinks to a remainder — the ads f does not
// carry, which keep their own heardAt and so still run out by TTL — or goes
// if nothing remains. The caller appends the record for f.
func (b *Beacon) supersede(f *decodedFrame, tag uint64) {
	k := 0
	for _, r := range b.nbrs {
		if r.sentBy(f.from, tag) {
			var rest []Ad
			for _, old := range r.frame.ads {
				if !carries(f.ads, old) {
					rest = append(rest, old)
				}
			}
			b.release(r.frame)
			if len(rest) == 0 {
				continue
			}
			r.frame = &decodedFrame{from: f.from, ads: rest, maxTTL: maxLeaseOf(rest), refs: 1}
		}
		b.nbrs[k] = r
		k++
	}
	clear(b.nbrs[k:])
	b.nbrs = b.nbrs[:k]
}

func carries(ads []Ad, ad Ad) bool {
	for _, a := range ads {
		if a.Provider == ad.Provider && a.Service == ad.Service {
			return true
		}
	}
	return false
}

// release drops one record's reference to f, and f's memo entry with the
// last one: the memo never outgrows what the tables of its listeners hold.
func (b *Beacon) release(f *decodedFrame) {
	f.refs--
	if f.refs == 0 && b.memo[f.from] == f {
		delete(b.memo, f.from)
	}
}

// sweep compacts the table down to the records that still matter. Without
// MissEvict a record goes once every lease in it has run out. With it, a
// record goes once its sender has been silent for more than MissEvict
// intervals, live leases or not — and a sender's current record stays that
// long even when its leases are shorter, because it is the only note of when
// the sender was last heard, which a remainder of the same sender needs.
// Beacons are one-hop, so the transport sender is the neighbor whose ads
// decay. Runs on every tick and before every read.
func (b *Beacon) sweep() {
	now := b.sched.Now()
	miss := time.Duration(b.MissEvict) * b.interval
	k := 0
	for i, r := range b.nbrs {
		switch {
		case miss > 0 && now-b.senderHeardAt(i) > miss:
			b.Evicted += int64(r.liveAds(now))
		case !r.liveAt(now) && (miss == 0 || r.frame.bytes == nil):
		default:
			b.nbrs[k] = r
			k++
			continue
		}
		b.release(r.frame)
	}
	clear(b.nbrs[k:])
	b.nbrs = b.nbrs[:k]
}

// liveAt reports whether any lease in r is still running at now.
func (r *neighbor) liveAt(now time.Duration) bool {
	return r.heardAt+r.frame.maxTTL > now
}

// liveAds counts the leases in r still running at now.
func (r *neighbor) liveAds(now time.Duration) int {
	n := 0
	for _, ad := range r.frame.ads {
		if r.heardAt+leaseTTL(ad) > now {
			n++
		}
	}
	return n
}

// senderHeardAt is when the sender of record i was last heard. A remainder's
// sender has moved on to a newer frame, whose record — appended later, so
// further down the table, which a sweep in progress has not touched yet —
// carries the time that counts.
func (b *Beacon) senderHeardAt(i int) time.Duration {
	r := b.nbrs[i]
	last := r.heardAt
	if r.frame.bytes == nil {
		for _, o := range b.nbrs[i+1:] {
			if o.sentBy(r.frame.from, r.tag) {
				last = max(last, o.heardAt)
			}
		}
	}
	return last
}

// cached returns the live cached ads matching q, unsorted. When every record
// is plain no (provider, service) can appear twice; otherwise the most
// recently heard claim for a pair — the later in the table — wins, as it
// would have overwritten the earlier one in a keyed store.
func (b *Beacon) cached(q Query) []Ad {
	plain := b.sweepPlain()
	now := b.sched.Now()
	var out []Ad
	for _, r := range b.nbrs {
		for _, ad := range r.frame.ads {
			if r.heardAt+leaseTTL(ad) <= now || plain && !q.Matches(ad) {
				continue
			}
			out = append(out, ad)
		}
	}
	if plain {
		return out
	}
	k := 0
	for _, ad := range latestPerKey(out) {
		if q.Matches(ad) {
			out[k] = ad
			k++
		}
	}
	return out[:k]
}

// sweepPlain sweeps and reports whether every remaining record is plain.
func (b *Beacon) sweepPlain() bool {
	b.sweep()
	for _, r := range b.nbrs {
		if !r.frame.plain {
			return false
		}
	}
	return true
}

// Find answers immediately from the local cache plus the node's own
// advertisements; no traffic is generated.
func (b *Beacon) Find(q Query, cb func(ads []Ad)) {
	ads := b.cached(q)
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
	if !b.sweepPlain() {
		return len(b.cached(Query{}))
	}
	now, n := b.sched.Now(), 0
	for i := range b.nbrs {
		n += b.nbrs[i].liveAds(now)
	}
	return n
}

// Providers returns the number of distinct neighbors whose advertisements
// are currently cached — the beacon's live estimate of its discovery
// neighborhood, which the context sensors sample as a neighbor count.
func (b *Beacon) Providers() int {
	if b.sweepPlain() {
		// Plain records name distinct providers, one each.
		now, n := b.sched.Now(), 0
		for i := range b.nbrs {
			if b.nbrs[i].liveAt(now) {
				n++
			}
		}
		return n
	}
	seen := make(map[string]struct{})
	for _, ad := range b.cached(Query{}) {
		seen[ad.Provider] = struct{}{}
	}
	return len(seen)
}
