package netsim

// Message is one payload in flight on the hub.
type Message struct {
	From    string
	To      string
	Kind    string // protocol message type, e.g. "commit", "proof-request"
	Payload []byte
	// Seq is the sender's request/response correlation number: the wire
	// layer stamps each request with a fresh Seq, workers echo it, and the
	// hub's lost notice for a dropped frame carries the frame's. Zero for
	// callers that don't correlate.
	Seq uint64

	// buf is the receiving endpoint's frame buffer Payload aliases (nil for
	// a message no endpoint received); TCPEndpoint.Release takes it back.
	buf *[]byte
}

// Size returns the accounted wire size of the message: payload plus a small
// fixed header, approximating a TLS record with framing.
func (m Message) Size() int64 { return int64(len(m.Payload)) + 64 }
