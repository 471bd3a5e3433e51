package app

import (
	"encoding/binary"
	"fmt"
	"math"

	"logmob/internal/agent"
	"logmob/internal/core"
	"logmob/internal/ctxsvc"
	"logmob/internal/lmu"
	"logmob/internal/security"
	"logmob/internal/vm"
)

// The shopping scenario: "Mobile agents could be a solution to this problem,
// encapsulating the description of the product the user wishes to buy,
// finding the best price, and performing the actual transaction for the
// user." The comparator is interactive catalogue browsing over the costed
// link (BrowseCS).

// priceKey is the context key prefix a vendor stores product prices under.
const priceKey = "price."

// SetupVendor configures a host as a shop: product prices go into its
// context service, and two Client/Server services are registered for the
// browsing baseline — "shop/page" (a catalogue page of pageSize bytes) and
// "shop/price" (price lookup).
func SetupVendor(h *core.Host, prices map[string]float64, pageSize int) {
	for product, price := range prices {
		h.Context().SetNum(ctxsvc.Key(priceKey+product), price)
	}
	page := make([]byte, pageSize)
	for i := range page {
		page[i] = byte(i)
	}
	h.RegisterService("shop/page", func(from string, args [][]byte) ([][]byte, error) {
		return [][]byte{page}, nil
	})
	h.RegisterService("shop/price", func(from string, args [][]byte) ([][]byte, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("shop/price: want 1 arg, got %d", len(args))
		}
		price := h.Context().GetNum(ctxsvc.Key(priceKey+string(args[0])), -1)
		out := make([]byte, 8)
		binary.BigEndian.PutUint64(out, math.Float64bits(price))
		return [][]byte{out}, nil
	})
}

// VendorCaps returns the agent capability a vendor host contributes:
// app_price() pushes the local price (in cents) of the product named in the
// agent's data space, or -1 if not stocked. Install on every vendor's (and
// the shopper's home) platform via agent.Env.Caps = agent.NewCaps(VendorCaps()...).
func VendorCaps() []vm.HostFunc {
	return []vm.HostFunc{{
		Name: "app_price", Arity: 0,
		Fn: func(m *vm.Machine, args []int64) ([]int64, int64, error) {
			p, u := agent.Current(m)
			product := string(u.Data["product"])
			price := p.Host().Context().GetNum(ctxsvc.Key(priceKey+product), -1)
			if price < 0 {
				return m.Ret1(-1), 0, nil
			}
			return m.Ret1(int64(price * 100)), 0, nil
		},
	}}
}

// shopperSource is the shopping agent: it walks its itinerary of vendor
// hosts, queries each local price, remembers the best, returns home and
// halts with [bestVendorIndex, bestPriceCents] on its stack.
const shopperSource = `
.globals 3            ; g0 = itinerary index, g1 = best cents, g2 = best index
.entry main
main:
	push -1
	gstore 1
	push -1
	gstore 2
loop:
	gload 0
	host a_itin_count
	lt
	jz gohome         ; visited all vendors
	gload 0
	host a_itin_select
	jz next
	host a_migrate
	jz next           ; vendor unreachable: skip it
	host app_price
	store 0           ; p
	load 0
	push 0
	lt
	jnz next          ; not stocked here
	gload 1
	push -1
	eq
	jnz take          ; first quote
	load 0
	gload 1
	lt
	jnz take          ; cheaper than best
	jmp next
take:
	load 0
	gstore 1
	gload 0
	gstore 2
next:
	gload 0
	push 1
	add
	gstore 0
	jmp loop
gohome:
	host a_at_dest
	jnz done
	host a_select_dest
	jz done           ; no home recorded: report in place
	host a_migrate
	jnz gohome        ; arrived: recheck and finish
	push 1000
	host a_sleep      ; home unreachable: wait and retry
	jmp gohome
done:
	gload 2
	gload 1
	halt              ; stack: [best index, best cents]
`

// BuildShopper creates the code-signed shopping agent: it carries the
// product to buy and the vendor itinerary, and returns to home.
func BuildShopper(publisher *security.Identity, home, product string, vendors []string) *lmu.Unit {
	u := &lmu.Unit{
		Manifest: lmu.Manifest{
			Name:      "shopper",
			Version:   "1.0",
			Kind:      lmu.KindAgent,
			Publisher: publisher.Name,
		},
		Code: vm.MustAssemble(shopperSource).Encode(),
		Data: map[string][]byte{
			agent.KeyDest:      []byte(home),
			"product":          []byte(product),
			agent.KeyItinerary: agent.EncodeItinerary(vendors),
		},
	}
	publisher.SignCode(u)
	return u
}

// BrowseResult reports an interactive browsing session: the best quote
// found, or -1 for both when no vendor stocks the product.
type BrowseResult struct {
	BestCents  int64
	BestVendor int
}

// BrowseCS is the Client/Server baseline: the user's device pages through
// each vendor's catalogue (pagesPerVendor "shop/page" calls) and then asks
// for the price — every interaction crossing the device's (costed) link.
// cb fires once with the best quote found.
func BrowseCS(h *core.Host, vendors []string, product string, pagesPerVendor int, cb func(BrowseResult)) {
	res := BrowseResult{BestCents: -1, BestVendor: -1}
	var visit func(i int)
	visit = func(i int) {
		if i >= len(vendors) {
			cb(res)
			return
		}
		var page func(p int)
		page = func(p int) {
			if p < pagesPerVendor {
				h.Call(vendors[i], "shop/page", nil, func(_ [][]byte, err error) {
					if err != nil {
						visit(i + 1) // vendor unusable; move on
						return
					}
					page(p + 1)
				})
				return
			}
			h.Call(vendors[i], "shop/price", [][]byte{[]byte(product)}, func(replies [][]byte, err error) {
				if err == nil && len(replies) == 1 && len(replies[0]) == 8 {
					price := math.Float64frombits(binary.BigEndian.Uint64(replies[0]))
					cents := int64(price * 100)
					if price >= 0 && (res.BestCents < 0 || cents < res.BestCents) {
						res.BestCents = cents
						res.BestVendor = i
					}
				}
				visit(i + 1)
			})
		}
		page(0)
	}
	visit(0)
}
