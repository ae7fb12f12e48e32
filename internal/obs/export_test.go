package obs

// Rows is the registry's port table as it is laid out: the fabric's
// declared links first, then any port a (switch, port) publish added.
func (r *Registry) Rows() []PortCounters { return r.rows }

// Links is the transmitter layout the fabric declared.
func (b *Bus) Links() []Link { return b.links }
