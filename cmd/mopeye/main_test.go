package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseFlagsDefaults(t *testing.T) {
	c, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.tun != "sim" || c.tunName != "" || c.upstream != "" {
		t.Fatalf("defaults: %+v", c)
	}
	if c.readBatch != 0 {
		t.Fatalf("readbatch default should be 0 (engine default): %+v", c)
	}
	if c.variant != "mopeye" || c.workers != 1 {
		t.Fatalf("defaults: %+v", c)
	}
}

func TestParseFlagsRealPlane(t *testing.T) {
	c, err := parseFlags([]string{
		"-tun", "real", "-tun-name", "mopeye0",
		"-upstream", "socks5://user:pw@127.0.0.1:1080",
		"-duration", "5s", "-workers", "4", "-readbatch", "16",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.tun != "real" || c.tunName != "mopeye0" {
		t.Fatalf("parsed: %+v", c)
	}
	if c.upstream != "socks5://user:pw@127.0.0.1:1080" {
		t.Fatalf("upstream: %q", c.upstream)
	}
	if c.duration != 5*time.Second || c.workers != 4 || c.readBatch != 16 {
		t.Fatalf("parsed: %+v", c)
	}
}

func TestParseFlagsRejects(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-tun", "bogus"}, "-tun"},
		{[]string{"-tun-name", "x0"}, "-tun-name needs -tun real"},
		{[]string{"-upstream", "socks5://1.2.3.4:1080"}, "-upstream needs -tun real"},
		{[]string{"-tun", "real", "-upstream", "http://1.2.3.4:8080"}, "unsupported scheme"},
		{[]string{"-tun", "real", "-upstream", "socks5://hostonly"}, "host:port"},
		{[]string{"-readbatch", "-3"}, "-readbatch"},
		{[]string{"-readbatch", "lots"}, "-readbatch"},
		{[]string{"-readbatch", "auto"}, "-readbatch"},
		{[]string{"-variant", "vpnservice"}, "-variant"},
		{[]string{"-dash", "-follow"}, "-dash"},
		{[]string{"-dash", "-jsonl"}, "-dash"},
		{[]string{"-dash-addr", "127.0.0.1:0", "-follow"}, "-dash"},
	}
	for _, c := range cases {
		_, err := parseFlags(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseFlags(%v) err = %v, want containing %q", c.args, err, c.want)
		}
	}
}

func TestParseFlagsDashAddrImpliesDash(t *testing.T) {
	c, err := parseFlags([]string{"-dash-addr", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if !c.dash || c.dashAddr != "127.0.0.1:0" {
		t.Fatalf("parsed: %+v", c)
	}
	// Plain -dash stands alone too.
	c, err = parseFlags([]string{"-dash"})
	if err != nil {
		t.Fatal(err)
	}
	if !c.dash || c.dashAddr != "" {
		t.Fatalf("parsed: %+v", c)
	}
}

func TestParseFlagsUpstreamDirectSpelling(t *testing.T) {
	// "direct" is valid with the real plane and means the default.
	c, err := parseFlags([]string{"-tun", "real", "-upstream", "direct"})
	if err != nil {
		t.Fatal(err)
	}
	if c.upstream != "direct" {
		t.Fatalf("upstream: %q", c.upstream)
	}
}
