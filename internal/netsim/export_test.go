package netsim

// liveMailboxes counts the mailboxes Close would release.
func (n *Network) liveMailboxes() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := 0
	for b := n.boxes; b != nil; b = b.next {
		k++
	}
	return k
}

// buffered is how many bytes wait unread in c's receive buffer.
func (c *Conn) buffered() int {
	c.rx.mu.Lock()
	defer c.rx.mu.Unlock()
	return c.rx.unread()
}
