package buffers

// server installs its delivery handler as a method value, the shape every
// production endpoint uses.
type server struct {
	last []byte
}

// Install registers s.handle, which keeps the payload.
func (s *server) Install(e *endpoint) { e.SetHandler(s.handle) }

func (s *server) handle(from string, payload []byte) {
	s.last = payload // want `recycled when the handler returns`
}

// copier installs a method value that copies what it keeps: clean.
type copier struct {
	last []byte
}

// Install registers c.handle.
func (c *copier) Install(e *endpoint) { e.SetHandler(c.handle) }

func (c *copier) handle(from string, payload []byte) {
	c.last = append(c.last[:0], payload...)
}
