package telemetry

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"time"
)

// Metrics is the /metrics.json document: one poll of the sweep's
// orchestration stats and telemetry aggregates.
type Metrics struct {
	GeneratedAt string       `json:"generated_at"`
	Sweep       *SweepStats  `json:"sweep,omitempty"`
	Telemetry   *HubSnapshot `json:"telemetry,omitempty"`
}

// Server exposes a running sweep over HTTP: /metrics.json for tooling
// and / for the self-contained HTML dashboard. Both sources may be nil;
// the corresponding sections are simply absent.
type Server struct {
	hub     *Hub
	tracker *Tracker
	ln      net.Listener
	srv     *http.Server
}

// NewServer returns a server over the given sources.
func NewServer(hub *Hub, tracker *Tracker) *Server {
	return &Server{hub: hub, tracker: tracker}
}

// Metrics builds the current /metrics.json document.
func (s *Server) Metrics() Metrics {
	m := Metrics{GeneratedAt: time.Now().UTC().Format(time.RFC3339)}
	if s.tracker != nil {
		st := s.tracker.Stats()
		m.Sweep = &st
	}
	if s.hub != nil {
		h := s.hub.Snapshot()
		m.Telemetry = &h
	}
	return m
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		_ = json.NewEncoder(w).Encode(s.Metrics())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(dashboardHTML))
	})
	return mux
}

// Start listens on addr (":0" picks an ephemeral port) and serves in a
// background goroutine; it returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the listener immediately, dropping in-flight requests.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// Shutdown stops the server gracefully: the listener closes at once, and
// in-flight requests (a dashboard poll mid-render) get until ctx expires
// to finish. Nil-server safe, like Close.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

// dashboardHTML is the entire dashboard: no external assets, so it works
// from an air-gapped machine watching a long sweep. It polls
// /metrics.json once a second and renders inline SVG sparklines.
const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>ibcc sweep</title>
<style>
 body{font:13px/1.4 -apple-system,Segoe UI,Roboto,sans-serif;margin:0;background:#0d1117;color:#c9d1d9}
 header{padding:10px 16px;background:#161b22;border-bottom:1px solid #30363d;display:flex;gap:24px;align-items:baseline;flex-wrap:wrap}
 header h1{font-size:15px;margin:0;color:#e6edf3}
 .bar{position:relative;width:260px;height:10px;background:#21262d;border-radius:5px;overflow:hidden}
 .bar i{position:absolute;left:0;top:0;bottom:0;background:#238636;display:block}
 main{padding:16px;display:grid;gap:16px;grid-template-columns:repeat(auto-fill,minmax(300px,1fr))}
 .card{background:#161b22;border:1px solid #30363d;border-radius:6px;padding:10px 12px}
 .card h2{font-size:11px;margin:0 0 6px;color:#8b949e;text-transform:uppercase;letter-spacing:.05em}
 .big{font-size:22px;color:#e6edf3}
 svg{display:block;width:100%;height:48px}
 polyline{fill:none;stroke:#58a6ff;stroke-width:1.5}
 .h polyline{stroke:#f85149}.q polyline{stroke:#d29922}.c polyline{stroke:#3fb950}
 table{width:100%;border-collapse:collapse;font-size:12px}
 td,th{padding:2px 6px;text-align:right;border-bottom:1px solid #21262d}
 th{color:#8b949e;font-weight:500}
 td:first-child,th:first-child{text-align:left}
 .err{color:#f85149}.ok{color:#3fb950}.dim{color:#8b949e}
 #stale{color:#f85149;display:none}
</style>
</head>
<body>
<header>
 <h1>ibcc sweep</h1>
 <span class="bar"><i id="prog"></i></span>
 <span id="progtxt" class="dim"></span>
 <span id="eta" class="dim"></span>
 <span id="eps" class="dim"></span>
 <span id="util" class="dim"></span>
 <span id="live" class="dim"></span>
 <span id="stale">stale — sweep gone?</span>
</header>
<main id="main"></main>
<script>
function spark(s,cls){
 if(!s||!s.v||s.v.length<2)return'<svg class="'+(cls||'')+'"></svg>';
 var v=s.v,n=v.length,mx=Math.max.apply(null,v),mn=Math.min.apply(null,v);
 if(mx===mn){mx=mn+1}
 var pts=[];
 for(var i=0;i<n;i++)pts.push((i/(n-1)*100).toFixed(2)+','+(46-(v[i]-mn)/(mx-mn)*44).toFixed(2));
 return'<svg class="'+(cls||'')+'" viewBox="0 0 100 48" preserveAspectRatio="none"><polyline points="'+pts.join(' ')+'"/></svg>';
}
function card(title,body){return'<div class="card"><h2>'+title+'</h2>'+body+'</div>'}
function last(s){return s&&s.v&&s.v.length?s.v[s.v.length-1]:0}
function f(x,d){return(x==null?0:x).toFixed(d==null?1:d)}
function ms(x){return x>=60000?(x/60000).toFixed(1)+'m':x>=1000?(x/1000).toFixed(1)+'s':f(x,0)+'ms'}
function render(m){
 var sw=m.sweep||{},t=m.telemetry||{},lv=t.live;
 var fin=(sw.done||0)+(sw.failed||0),tot=sw.total||0;
 document.getElementById('prog').style.width=(tot?100*fin/tot:0)+'%';
 document.getElementById('progtxt').textContent=fin+'/'+tot+' jobs'+(sw.failed?' ('+sw.failed+' failed)':'')+(sw.cached?' ('+sw.cached+' cached)':'')+(sw.corrupt_artifacts?' ('+sw.corrupt_artifacts+' corrupt artifacts)':'');
 document.getElementById('eta').textContent=sw.eta_ms?'eta '+ms(sw.eta_ms):'';
 document.getElementById('eps').textContent=sw.events_per_sec?f(sw.events_per_sec/1e6,2)+' M events/s':'';
 document.getElementById('util').textContent=sw.workers?sw.workers+' workers, '+f(100*(sw.worker_util||0),0)+'% busy':'';
 document.getElementById('live').textContent=lv?('watching: '+lv.name+(t.live_done?' (done)':' @ '+f(lv.now_us,0)+'µs')):'';
 var h='';
 var c=t.completion||{};
 h+=card('message completion µs (all runs)','<span class="big">p50 '+f(c.p50)+'</span> <span class="dim">p99 '+f(c.p99)+' · max '+f(c.max)+' · n='+(c.count||0)+'</span>');
 var j=sw.job_ms||{};
 h+=card('job wall ms','<span class="big">p50 '+f(j.p50,0)+'</span> <span class="dim">p99 '+f(j.p99,0)+'</span>');
 if(lv){
  h+=card('hotspot Gbit/s · '+f(last(lv.hotspot_gbps),2),spark(lv.hotspot_gbps,'h'));
  h+=card('other Gbit/s · '+f(last(lv.other_gbps),2),spark(lv.other_gbps));
  h+=card('control Gbit/s · '+f(last(lv.control_gbps),3),spark(lv.control_gbps,'c'));
  h+=card('queued KB (fabric) · '+f(last(lv.queued_kb)),spark(lv.queued_kb,'q'));
  h+=card('max port KB · '+f(last(lv.max_port_kb)),spark(lv.max_port_kb,'q'));
  h+=card('throttled flows · '+f(last(lv.throttled),0),spark(lv.throttled,'h'));
  h+=card('max CCTI · '+f(last(lv.max_ccti),0),spark(lv.max_ccti,'h'));
  h+=card('drops/bin · '+f(last(lv.drops),0)+' · stalls/bin · '+f(last(lv.stalls),0),spark(lv.drops,'h')+spark(lv.stalls,'q'));
 }
 var hp=(t.hot_ports||[]).map(function(p){return'<tr><td>sw'+p.switch+':p'+p.port+(p.host_port?' (host)':'')+'</td><td>'+f(p.peak_kb)+'</td></tr>'}).join('');
 if(hp)h+=card('hottest ports (peak KB)','<table><tr><th>port</th><th>peak</th></tr>'+hp+'</table>');
 var rec=(sw.recent||[]).slice(-12).reverse().map(function(r){
  return'<tr><td>'+r.name+'</td><td>w'+r.worker+'</td><td>'+ms(r.ms)+'</td><td>'+(r.err?'<span class="err">fail</span>':r.cached?'<span class="dim">cache</span>':'<span class="ok">ok</span>')+'</td></tr>'}).join('');
 if(rec)h+=card('recent jobs','<table><tr><th>job</th><th>wkr</th><th>wall</th><th></th></tr>'+rec+'</table>');
 var act=(sw.active_jobs||[]).map(function(r){return'<tr><td>'+r.name+'</td><td>w'+r.worker+'</td><td>'+ms(r.ms)+'</td></tr>'}).join('');
 if(act)h+=card('running now','<table><tr><th>job</th><th>wkr</th><th>for</th></tr>'+act+'</table>');
 document.getElementById('main').innerHTML=h;
}
function tick(){
 fetch('/metrics.json').then(function(r){return r.json()}).then(function(m){
  document.getElementById('stale').style.display='none';render(m);
 }).catch(function(){document.getElementById('stale').style.display='inline'});
}
tick();setInterval(tick,1000);
</script>
</body>
</html>
`
