package discovery

import (
	"fmt"
	"time"

	"logmob/internal/transport"
	"logmob/internal/wire"
)

// Lookup protocol message types.
const (
	msgRegister byte = iota + 1
	msgUnregister
	msgQuery
	msgQueryReply
)

// LookupServer is a Jini-style centralised lookup service: an index of
// leased service advertisements reachable at a well-known address.
type LookupServer struct {
	ep    transport.Endpoint
	table *adTable
	// Registrations counts accepted register messages.
	Registrations int64
	// Queries counts handled queries.
	Queries int64
}

// NewLookupServer attaches a lookup service to ep (typically a mux channel)
// using sched's clock for lease expiry.
func NewLookupServer(ep transport.Endpoint, sched transport.Scheduler) *LookupServer {
	s := &LookupServer{ep: ep, table: newAdTable(sched.Now)}
	ep.SetHandler(s.handle)
	return s
}

// Leases returns the number of live leases.
func (s *LookupServer) Leases() int { return s.table.size() }

func (s *LookupServer) handle(from string, payload []byte) {
	r := wire.NewReader(payload)
	switch r.Byte() {
	case msgRegister:
		ad := decodeAd(r)
		if r.ExpectEOF() != nil || ad.Service == "" {
			return
		}
		s.table.put(ad)
		s.Registrations++
	case msgUnregister:
		provider := r.String()
		service := r.String()
		if r.ExpectEOF() != nil {
			return
		}
		s.table.drop(provider, service)
	case msgQuery:
		reqID := r.Uint()
		q := decodeQuery(r)
		if r.ExpectEOF() != nil {
			return
		}
		s.Queries++
		ads := s.table.find(q)
		var b wire.Buffer
		b.PutByte(msgQueryReply)
		b.PutUint(reqID)
		b.PutUint(uint64(len(ads)))
		for i := range ads {
			ads[i].encode(&b)
		}
		_ = s.ep.Send(from, b.Bytes()) // reply is best effort
	}
}

// LookupClient registers local services with a LookupServer and queries it.
type LookupClient struct {
	ep     transport.Endpoint
	sched  transport.Scheduler
	server string
	// Timeout bounds how long a Find waits for a reply. Default 5s.
	Timeout time.Duration

	nextReq  uint64
	pending  map[uint64]*pendingFind
	renewals map[string]*renewal // by service
}

type pendingFind struct {
	cb      func([]Ad)
	timeout transport.Timer
}

// renewal keeps one advertised service's lease alive: its timer re-registers
// ad every ad.TTL/2 and re-arms itself, until Withdraw stops it.
type renewal struct {
	ad    Ad
	timer transport.Timer
}

var _ Finder = (*LookupClient)(nil)

// NewLookupClient returns a client of the lookup server at serverAddr.
func NewLookupClient(ep transport.Endpoint, sched transport.Scheduler, serverAddr string) *LookupClient {
	c := &LookupClient{
		ep: ep, sched: sched, server: serverAddr,
		Timeout:  5 * time.Second,
		pending:  make(map[uint64]*pendingFind),
		renewals: make(map[string]*renewal),
	}
	ep.SetHandler(c.handle)
	return c
}

// Advertise registers ad with the lookup server and keeps renewing the lease
// every TTL/2 until Withdraw. The initial registration error, if any, is
// returned; renewals are best effort.
func (c *LookupClient) Advertise(ad Ad) error {
	if ad.Provider == "" {
		ad.Provider = c.ep.Addr()
	}
	if ad.TTL <= 0 {
		ad.TTL = time.Minute
	}
	if err := c.register(ad); err != nil {
		return err
	}
	c.scheduleRenewal(ad)
	return nil
}

func (c *LookupClient) register(ad Ad) error {
	var b wire.Buffer
	b.PutByte(msgRegister)
	ad.encode(&b)
	if err := c.ep.Send(c.server, b.Bytes()); err != nil {
		return fmt.Errorf("discovery: register %q with %s: %w", ad.Service, c.server, err)
	}
	return nil
}

// scheduleRenewal arms the service's renewal timer one half-lease out,
// making the timer on the service's first advertisement. A re-advertisement
// replaces the ad the timer renews and supersedes its pending firing.
func (c *LookupClient) scheduleRenewal(ad Ad) {
	r := c.renewals[ad.Service]
	if r == nil {
		r = &renewal{}
		r.timer = c.sched.NewTimer(func() {
			_ = c.register(r.ad) // best effort; lease lapses if unreachable
			r.timer.Reset(r.ad.TTL / 2)
		})
		c.renewals[ad.Service] = r
	}
	r.ad = ad
	r.timer.Reset(ad.TTL / 2)
}

// Withdraw stops renewing and unregisters the service.
func (c *LookupClient) Withdraw(service string) {
	if r, ok := c.renewals[service]; ok {
		r.timer.Stop()
		delete(c.renewals, service)
	}
	var b wire.Buffer
	b.PutByte(msgUnregister)
	b.PutString(c.ep.Addr())
	b.PutString(service)
	_ = c.ep.Send(c.server, b.Bytes())
}

// Find queries the lookup server. cb receives the matching ads, or nil if
// the server is unreachable or does not answer within Timeout.
func (c *LookupClient) Find(q Query, cb func(ads []Ad)) {
	c.nextReq++
	reqID := c.nextReq
	var b wire.Buffer
	b.PutByte(msgQuery)
	b.PutUint(reqID)
	q.encode(&b)
	if err := c.ep.Send(c.server, b.Bytes()); err != nil {
		cb(nil)
		return
	}
	p := &pendingFind{cb: cb}
	p.timeout = c.sched.NewTimer(func() {
		if _, ok := c.pending[reqID]; ok {
			delete(c.pending, reqID)
			cb(nil)
		}
	})
	p.timeout.Reset(c.Timeout)
	c.pending[reqID] = p
}

func (c *LookupClient) handle(from string, payload []byte) {
	r := wire.NewReader(payload)
	if r.Byte() != msgQueryReply {
		return
	}
	reqID := r.Uint()
	n := r.Uint()
	if n > uint64(r.Remaining())/minAdBytes {
		return // claims more ads than its bytes could hold
	}
	ads := make([]Ad, 0, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		ads = append(ads, decodeAd(r))
	}
	if r.ExpectEOF() != nil {
		return
	}
	p, ok := c.pending[reqID]
	if !ok {
		return // late reply after timeout
	}
	delete(c.pending, reqID)
	p.timeout.Stop()
	p.cb(ads)
}

// Close cancels all renewals and pending finds.
func (c *LookupClient) Close() error {
	for service, r := range c.renewals {
		r.timer.Stop()
		delete(c.renewals, service)
	}
	for id, p := range c.pending {
		p.timeout.Stop()
		delete(c.pending, id)
	}
	return nil
}
