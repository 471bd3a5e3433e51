// Package discovery implements service discovery in both of the styles the
// paper contrasts.
//
// The centralised LookupServer/LookupClient pair is Jini-like: providers
// register leased advertisements with a well-known lookup service, and
// clients query it. As the paper notes, this "requires lookup services,
// functioning as indexes of services offered, to operate" and is a poor fit
// for ad-hoc environments where no such index is reachable.
//
// The decentralised Beacon service is the ad-hoc alternative: every node
// periodically broadcasts its advertisements to its radio neighbors and
// caches what it hears, so discovery keeps working in an infrastructure-less
// piconet. Experiment T7 measures the two under churn.
package discovery

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"logmob/internal/wire"
)

// Ad advertises one service offered by a provider.
type Ad struct {
	// Service names the offered service, e.g. "cinema/tickets".
	Service string
	// Provider is the offering host's transport address.
	Provider string
	// Attrs carries free-form service metadata. Treat it as read-only: the
	// ads a Beacon hands out share one decoded map between every listener
	// that heard the frame, and nothing in this package writes to it.
	Attrs map[string]string
	// TTL is how long the advertisement stays valid without renewal.
	TTL time.Duration
}

func (a *Ad) encode(b *wire.Buffer) {
	b.PutString(a.Service)
	b.PutString(a.Provider)
	b.PutStringMap(a.Attrs)
	b.PutInt(int64(a.TTL))
}

// minAdBytes is the shortest encoding decodeAd accepts: two empty strings,
// an empty map and a one-byte TTL. It bounds what a peer-supplied ad count
// may pre-size.
const minAdBytes = 4

// decodeAd interns the service and provider names: the same few strings
// arrive from every provider.
func decodeAd(r *wire.Reader) Ad {
	return Ad{
		Service:  r.InternString(),
		Provider: r.InternString(),
		Attrs:    r.StringMap(),
		TTL:      time.Duration(r.Int()),
	}
}

// maxLease caps a peer-supplied TTL so heardAt+lease cannot overflow.
const maxLease = time.Duration(1) << 62

// leaseTTL is how long ad stays valid after it was heard or registered.
func leaseTTL(ad Ad) time.Duration {
	switch {
	case ad.TTL <= 0:
		return time.Minute
	case ad.TTL > maxLease:
		return maxLease
	}
	return ad.TTL
}

// Query matches advertisements. Service must match exactly; every Attrs
// entry must be present with the same value.
type Query struct {
	Service string
	Attrs   map[string]string
}

// Matches reports whether ad satisfies the query.
func (q Query) Matches(ad Ad) bool {
	if q.Service != "" && q.Service != ad.Service {
		return false
	}
	for k, v := range q.Attrs {
		if ad.Attrs[k] != v {
			return false
		}
	}
	return true
}

func (q Query) encode(b *wire.Buffer) {
	b.PutString(q.Service)
	b.PutStringMap(q.Attrs)
}

func decodeQuery(r *wire.Reader) Query {
	return Query{Service: r.String(), Attrs: r.StringMap()}
}

// Finder is the query interface shared by both discovery styles. The
// callback is invoked exactly once, possibly synchronously, with the
// matching advertisements (nil on failure or timeout).
type Finder interface {
	Find(q Query, cb func(ads []Ad))
}

// adKey identifies an advertisement. A struct, not a joined string: both
// halves arrive from peers and may contain any byte, separators included.
type adKey struct{ provider, service string }

// lease is a stored advertisement with its expiry.
type lease struct {
	ad      Ad
	expires time.Duration
}

// adTable is the lookup server's expiring advertisement store.
// Single-goroutine (simulation/handler context).
type adTable struct {
	now    func() time.Duration
	leases map[adKey]lease
	// pruneAt is the table size at which put prunes next: twice what the
	// last prune left, so a server that is registered with but never queried
	// still holds at most about double its live set, at amortised O(1) a put.
	pruneAt int
}

// adTableMinPrune keeps small tables from pruning on every other put.
const adTableMinPrune = 64

func newAdTable(now func() time.Duration) *adTable {
	return &adTable{now: now, leases: make(map[adKey]lease), pruneAt: adTableMinPrune}
}

func (t *adTable) put(ad Ad) {
	t.leases[adKey{ad.Provider, ad.Service}] = lease{ad: ad, expires: t.now() + leaseTTL(ad)}
	if len(t.leases) >= t.pruneAt {
		t.prune()
		t.pruneAt = max(adTableMinPrune, 2*len(t.leases))
	}
}

func (t *adTable) drop(provider, service string) {
	delete(t.leases, adKey{provider, service})
}

// find returns matching, unexpired ads and prunes expired ones.
func (t *adTable) find(q Query) []Ad {
	now := t.now()
	var out []Ad
	for key, l := range t.leases {
		if l.expires <= now {
			delete(t.leases, key)
			continue
		}
		if q.Matches(l.ad) {
			out = append(out, l.ad)
		}
	}
	sortAds(out)
	return out
}

// prune drops expired leases.
func (t *adTable) prune() {
	now := t.now()
	for key, l := range t.leases {
		if l.expires <= now {
			delete(t.leases, key)
		}
	}
}

func (t *adTable) size() int {
	t.prune()
	return len(t.leases)
}

// sortAds orders ads by (service, provider) for deterministic output,
// stably: a lookup server's reply is as long as its sender likes.
func sortAds(ads []Ad) {
	slices.SortStableFunc(ads, func(a, b Ad) int {
		return cmp.Or(strings.Compare(a.Service, b.Service), strings.Compare(a.Provider, b.Provider))
	})
}
