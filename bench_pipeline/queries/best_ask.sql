-- Best ask: running minimum ask price (the mirror of
-- bench/queries/best_bid.sql).
create table ASKS(ID int, BROKER_ID int, PRICE int, VOLUME int);

select min(PRICE) from ASKS;
